package main

import (
	"fmt"
	"math"
	"math/rand"

	"mpq/internal/cloud"
	"mpq/internal/geometry"
	"mpq/internal/selection"
	"mpq/internal/workload"
)

// spec is one stratum of a template population: a join-graph shape with
// a parameter and table count. Every seed runs the same strata with
// the same catalogs.
type spec struct {
	Shape  string
	Params int
	Tables int
}

// tmpl is one query template: a stratum plus the catalog seed the
// server's workload generator expands it with.
type tmpl struct {
	spec
	Seed int64
}

func (t tmpl) String() string {
	return fmt.Sprintf("%s-%dp-%dt#%d", t.Shape, t.Params, t.Tables, t.Seed)
}

func (t tmpl) config() workload.Config {
	shape, err := workload.ParseShape(t.Shape)
	if err != nil {
		panic(err) // strata are fixed below; an unknown shape is a bug
	}
	return workload.Config{Tables: t.Tables, Params: t.Params, Shape: shape, Seed: t.Seed}
}

// space returns the template's parameter-space bounding box, derived
// from its schema alone (no optimization needed).
func (t tmpl) space(sol *geometry.Solver) (lo, hi geometry.Vector, err error) {
	schema, err := workload.Generate(t.config())
	if err != nil {
		return nil, nil, err
	}
	model, err := cloud.NewModel(schema, cloud.DefaultConfig(), sol)
	if err != nil {
		return nil, nil, err
	}
	lo, hi, ok := sol.BoundingBox(model.Space())
	if !ok {
		return nil, nil, fmt.Errorf("template %v: unbounded parameter space", t)
	}
	return lo, hi, nil
}

func strata(shapes []string, params int, tables ...int) []spec {
	var out []spec
	for _, sh := range shapes {
		for _, n := range tables {
			out = append(out, spec{Shape: sh, Params: params, Tables: n})
		}
	}
	return out
}

var allShapes = []string{"chain", "star", "cycle", "clique"}

// Template strata per workload. Sizes stay clear of the heavy tail
// (1-parameter cliques and stars beyond 6 tables, 2-parameter queries
// beyond 4 tables), where one catalog can take tens of seconds and a
// single template would dominate a run.
var (
	// hotStrata is the picks-hot population, in Zipf rank order: 1 and
	// 2 parameters, 4 to 7 tables, every shape.
	hotStrata = interleave(
		append(strata([]string{"chain"}, 1, 5, 7, 4, 6), strata([]string{"star", "cycle"}, 1, 5, 4, 6)...),
		append(strata([]string{"clique"}, 1, 5, 4), strata(allShapes, 2, 4)...),
	)
	// coldStrata is one round of prepare-cold templates: 1 parameter
	// with 5 to 8 tables, or 2 parameters with 3 tables.
	coldStrata = append(append(append(
		strata([]string{"chain"}, 1, 5, 6, 7, 8),
		strata([]string{"star", "clique"}, 1, 5, 6)...),
		strata([]string{"cycle"}, 1, 5, 6, 7)...),
		strata(allShapes, 2, 3)...)
	// warmupStrata are the fixed templates prepare-cold's set-up
	// prepares: 2 parameters with 4 tables, a size the stream never
	// draws. They take about half a second together, so a set-up
	// measures optimizer work rather than the few milliseconds of
	// process launch, whose jitter moved a launch-only median by 50%
	// between sets of runs.
	warmupStrata = strata([]string{"chain", "star"}, 2, 4)
)

// interleave alternates two lists so that Zipf's head holds both kinds.
func interleave(a, b []spec) []spec {
	var out []spec
	for i := 0; i < len(a) || i < len(b); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

// fixedTemplates gives every stratum the same catalog for every seed,
// so that set-up does the same optimizer work on every run: a
// 2-parameter template's cost moves by a factor of two to four with the
// catalog, and seed-drawn catalogs moved picks-hot's setup_s by 40%
// between seeds. The seed draws the request stream.
func fixedTemplates(ss []spec) []tmpl {
	out := make([]tmpl, len(ss))
	for i, s := range ss {
		out[i] = tmpl{spec: s, Seed: int64(i + 1)}
	}
	return out
}

// rngFor derives an independent, seed-determined random stream per use.
func rngFor(seed int64, stream string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range stream {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 ^ h))
}

// catalogSeed draws prepare-cold's catalogs, the same for every
// workload seed.
const catalogSeed = 1

// rounds lists never-seen templates: every round is the full stratum
// list with fresh catalogs, so any prefix of the list keeps the mix
// balanced. Round r holds the same catalogs for every seed, and the
// seed shuffles each round's order: a run does the same optimizer work
// whatever its seed, up to where the time cuts its last round. Drawn
// per seed, one slow catalog (a hundred times its stratum's median)
// moved server CPU per request by a third between seeds.
func rounds(seed int64, stream string, ss []spec, n int) []tmpl {
	order, cat := rngFor(seed, stream), rngFor(catalogSeed, stream+"-catalogs")
	var out []tmpl
	for r := 0; r < n; r++ {
		catalogs := make([]int64, len(ss))
		for i := range catalogs {
			catalogs[i] = cat.Int63n(1 << 40)
		}
		for _, i := range order.Perm(len(ss)) {
			out = append(out, tmpl{spec: ss[i], Seed: catalogs[i]})
		}
	}
	return out
}

// opKind is the kind of one client request.
type opKind int

const (
	opPrepare opKind = iota
	opPick
	opBatch
)

func (k opKind) String() string {
	return [...]string{"prepare", "pick", "pickbatch"}[k]
}

// op is one client request, fully determined by the workload seed.
type op struct {
	Kind opKind
	// Tpl indexes the workload's template list (population or stream).
	Tpl int
	// DeadlineMs bounds a Prepare (0 = none; the anytime path needs one).
	DeadlineMs int64
	Policy     string
	Points     []geometry.Vector // one point for a pick, many for a batch
	Weights    []float64
	Minimize   int
	Bounds     []selection.Bound
	Order      []int
}

// Policies a single pick rotates through.
var policies = []string{"frontier", "weighted", "bound", "lex"}

const batchPoints = 64

// pickGen draws pick requests: Zipf-skewed template choice, uniform
// points inside each template's parameter box, rotating policies.
type pickGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	box  [][2]geometry.Vector
	// front returns the unrestricted Pareto front's cost vectors at a
	// point (relevance regions ignored), the source of bound limits; nil
	// bounds the non-minimized metric by +Inf.
	front func(tpl int, x geometry.Vector) []geometry.Vector
	// remap turns a generator-local template number into the
	// workload's template index.
	remap []int
	// rank maps a Zipf rank to a generator-local template; it is
	// re-drawn every driftEvery requests, so the hot set drifts over a
	// run and every template takes turns at the head.
	rank []int
	n    int
}

// driftEvery is how many requests the Zipf ranking holds still.
const driftEvery = 256

func newPickGen(seed int64, stream string, box [][2]geometry.Vector, front func(int, geometry.Vector) []geometry.Vector) *pickGen {
	rng := rngFor(seed, stream)
	return &pickGen{
		rng:   rng,
		zipf:  rand.NewZipf(rng, 1.1, 1, uint64(len(box)-1)),
		box:   box,
		front: front,
	}
}

func (g *pickGen) point(tpl int) geometry.Vector {
	lo, hi := g.box[tpl][0], g.box[tpl][1]
	x := geometry.NewVector(len(lo))
	for d := range x {
		x[d] = lo[d] + g.rng.Float64()*(hi[d]-lo[d])
	}
	return x
}

// next returns the next request of the picks-hot mix: Zipf-skewed
// templates, 70% single picks rotating the four policies, 30% frontier
// batches of 64 points.
func (g *pickGen) next() op {
	if g.n%driftEvery == 0 {
		g.rank = g.rng.Perm(len(g.box))
	}
	tpl := g.rank[g.zipf.Uint64()]
	g.n++
	if g.rng.Float64() < 0.3 {
		o := op{Kind: opBatch, Tpl: g.remap[tpl], Policy: "frontier"}
		for i := 0; i < batchPoints; i++ {
			o.Points = append(o.Points, g.point(tpl))
		}
		return o
	}
	return g.single(tpl, policies[g.n%len(policies)])
}

// single draws one pick of the given policy on a template.
func (g *pickGen) single(tpl int, policy string) op {
	x := g.point(tpl)
	o := op{Kind: opPick, Tpl: g.remap[tpl], Policy: policy, Points: []geometry.Vector{x}}
	switch policy {
	case "weighted":
		o.Weights = []float64{1, math.Pow(10, 2+3*g.rng.Float64())}
	case "lex":
		o.Order = []int{0, 1}
		if g.rng.Intn(2) == 1 {
			o.Order = []int{1, 0}
		}
	case "bound":
		o.Minimize = g.rng.Intn(2)
		other := 1 - o.Minimize
		limit := math.MaxFloat64
		if g.front != nil {
			// A limit met by some Pareto-optimal plan at x: the answer is
			// infeasible only if no returned plan covers the point.
			if f := g.front(tpl, x); len(f) > 0 {
				limit = f[g.rng.Intn(len(f))][other]
			}
		}
		o.Bounds = []selection.Bound{{Metric: other, Max: limit}}
	}
	return o
}
