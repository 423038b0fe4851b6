package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mpq/internal/geometry"
	"mpq/internal/selection"
	"mpq/internal/serve"
)

// Workload shapes.
const (
	// anytimeDeadlineMs is the deadline of picks-hot's set-up Prepares:
	// generous, so the coarse generation always fits.
	anytimeDeadlineMs = 60000
	// Pregenerated request list lengths: picks-hot's list is cycled;
	// prepare-cold's is long enough for any run of up to a minute.
	hotOps     = 30000
	coldRoundN = 40
	// prefixOps is how many of picks-hot's requests the traced replay
	// repeats in-process.
	prefixOps = 2000
)

var refineLadder = []float64{0.5, 0.1}

// scenario is one run's inputs, its in-process reference server and
// the server configuration both share.
type scenario struct {
	name string
	seed int64
	dir  string

	args []string      // mpqserve flags
	opts serve.Options // the same configuration in-process
	ref  *serve.Server

	tpls []tmpl   // every template an op may address
	keys []string // plan-set key per template
	// cands holds the reference plan set per key, for coverage checks
	// and bound limits.
	cands   map[string][]selection.Candidate
	candsMu sync.Mutex

	// preload lists the templates every set-up prepares, with the
	// deadline their Prepares carry.
	preload         []int
	preloadDeadline int64
	// setupPending is the largest refinement backlog seen while set-up
	// waited for refinement to finish.
	setupPending int64
	// prepared holds the reference's own answer per template it
	// prepared during set-up: a set-up Prepare must match the answer of
	// a fresh server, not a cache hit on the reference.
	prepared    map[int]answer
	lastPreload []rec // the last launch's preload
	allPreloads []rec // every launch's preload

	ops    []op // the client's requests
	cyclic bool // whether ops repeat
	// setups is how many times a run launches (and preloads) a fresh
	// server; setup_s is their median and the last one is measured.
	setups int

	// The fixed, seed-determined part of the run that the traced replay
	// repeats in-process: templates, and pick requests as indices into
	// ops.
	prefixTpls []int
	prefix     []int
}

func newScenario(name string, seed int64, dir string) (*scenario, error) {
	w := &scenario{name: name, seed: seed, dir: dir, cands: map[string][]selection.Candidate{}, prepared: map[int]answer{}}
	w.opts = serve.Options{Workers: 2, Index: true, DonateWorkers: true}
	w.args = []string{"-workers", "2"}

	switch name {
	case "picks-hot":
		// Set-up takes the anytime path: each template's coarse generation
		// first, then background refinement to the exact plan set, which
		// set-up waits for. The timed phase picks from exact sets with the
		// optimizer idle.
		w.tpls = fixedTemplates(hotStrata)
		w.opts.RefineLadder = refineLadder
		w.args = append(w.args, "-refine-ladder", "0.5,0.1")
		w.ref = serve.New(w.opts)
		if err := w.computeKeys(); err != nil {
			return nil, err
		}
		w.preload, w.preloadDeadline = allIdx(len(w.tpls)), anytimeDeadlineMs
		if err := w.prepareOn(w.ref, w.preload, w.preloadDeadline); err != nil {
			return nil, err
		}
		if err := w.ref.WaitRefinement(context.Background()); err != nil {
			return nil, err
		}
		for _, k := range w.keys {
			w.recordCands(w.ref, k)
		}
		w.setups = 3
		g, err := w.pickGen("hot-picks", allIdx(len(w.tpls)))
		if err != nil {
			return nil, err
		}
		w.ops, w.cyclic = genOps(g, hotOps), true
		w.prefixTpls, w.prefix = allIdx(len(w.tpls)), allIdx(prefixOps)
	case "prepare-cold":
		// The stream, then the fixed warm-up templates set-up prepares:
		// their strata are not in the stream, so no stream Prepare can
		// hit them in the cache.
		w.tpls = append(rounds(seed, "cold", coldStrata, coldRoundN), fixedTemplates(warmupStrata)...)
		stream := len(w.tpls) - len(warmupStrata)
		w.args = append(w.args, "-donate")
		w.ref = serve.New(w.opts)
		if err := w.computeKeys(); err != nil {
			return nil, err
		}
		w.preload = allIdx(len(w.tpls))[stream:]
		if err := w.prepareOn(w.ref, w.preload, 0); err != nil {
			return nil, err
		}
		w.setups = 5
		ops, err := w.coldOps(stream)
		if err != nil {
			return nil, err
		}
		w.ops = ops
		round := len(coldStrata)
		w.prefixTpls = allIdx(round)
		for i, o := range ops {
			if o.Kind != opPrepare && o.Tpl < round {
				w.prefix = append(w.prefix, i)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want picks-hot or prepare-cold)", name)
	}
	return w, nil
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (w *scenario) close() {
	if w.ref != nil {
		w.ref.Close()
	}
}

// computeKeys derives every template's plan-set key (a hash; no
// optimization).
func (w *scenario) computeKeys() error {
	w.keys = make([]string, len(w.tpls))
	for i, t := range w.tpls {
		k, err := w.ref.Key(serve.Template{Workload: t.config()})
		if err != nil {
			return fmt.Errorf("key of %v: %w", t, err)
		}
		w.keys[i] = k
	}
	return nil
}

// prepareOn prepares the given templates in-process, two at a time
// like the server's pool, with an optional deadline (the anytime path),
// and records each answer.
func (w *scenario) prepareOn(s *serve.Server, idx []int, deadlineMs int64) error {
	var next atomic.Int64
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(idx) {
					return
				}
				t := w.tpls[idx[i]]
				ctx, cancel := deadlineCtx(deadlineMs)
				res, err := s.Prepare(ctx, serve.Template{Workload: t.config()})
				cancel()
				if err != nil {
					errs[c] = fmt.Errorf("reference prepare %v: %w", t, err)
					return
				}
				w.candsMu.Lock()
				w.prepared[idx[i]] = prepareAnswer(res, nil)
				w.candsMu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recordCands keeps a resident plan set's candidates by key.
func (w *scenario) recordCands(s *serve.Server, key string) {
	set, ok := s.PlanSet(key)
	if !ok {
		return
	}
	cands := make([]selection.Candidate, len(set.Plans))
	for i, p := range set.Plans {
		cands[i] = selection.Candidate{Plan: p.Plan, Cost: p.Cost, RR: p.RR}
	}
	w.candsMu.Lock()
	w.cands[key] = cands
	w.candsMu.Unlock()
}

func (w *scenario) candsOf(key string) []selection.Candidate {
	w.candsMu.Lock()
	defer w.candsMu.Unlock()
	return w.cands[key]
}

// front returns the costs of the unrestricted Pareto front of a
// template's reference plan set at x (relevance regions ignored).
func (w *scenario) front(tpl int, x geometry.Vector) []geometry.Vector {
	all := w.candsOf(w.keys[tpl])
	free := make([]selection.Candidate, len(all))
	for i, c := range all {
		free[i] = selection.Candidate{Plan: c.Plan, Cost: c.Cost}
	}
	var out []geometry.Vector
	for _, c := range selection.Frontier(free, x) {
		out = append(out, c.Cost)
	}
	return out
}

// complete reports whether Theorem 3 holds at x for a key's reference
// plan set: the plans whose relevance regions contain x realize every
// Pareto-optimal cost vector of the whole set at x. A point no region
// covers is the extreme case.
func (w *scenario) complete(key string, x geometry.Vector) bool {
	all := w.candsOf(key)
	free := make([]selection.Candidate, len(all))
	for i, c := range all {
		free[i] = selection.Candidate{Plan: c.Plan, Cost: c.Cost}
	}
	got, want := selection.Frontier(all, x), selection.Frontier(free, x)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Cost.Equal(want[i].Cost, geometry.CompareEps) {
			return false
		}
	}
	return true
}

// pickGen builds the picks-hot request generator over the given
// templates.
func (w *scenario) pickGen(stream string, idx []int) (*pickGen, error) {
	sol := geometry.NewSolver(geometry.Config{})
	box := make([][2]geometry.Vector, len(idx))
	for i, t := range idx {
		lo, hi, err := w.tpls[t].space(sol)
		if err != nil {
			return nil, err
		}
		box[i] = [2]geometry.Vector{lo, hi}
	}
	front := func(i int, x geometry.Vector) []geometry.Vector { return w.front(idx[i], x) }
	g := newPickGen(w.seed, stream, box, front)
	g.remap = idx
	return g, nil
}

func genOps(g *pickGen, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// coldOps lists prepare-cold requests: each template's Prepare followed
// by the requests that use it — one pick per policy and one frontier
// batch. Bound limits are +Inf here: the plan set does not exist before
// the Prepare, so a limit cannot be drawn from it.
func (w *scenario) coldOps(stream int) ([]op, error) {
	sol := geometry.NewSolver(geometry.Config{})
	var out []op
	for i, t := range w.tpls[:stream] {
		lo, hi, err := t.space(sol)
		if err != nil {
			return nil, err
		}
		g := newPickGen(w.seed+int64(i), "cold-picks", [][2]geometry.Vector{{lo, hi}}, nil)
		g.remap = []int{i}
		out = append(out, op{Kind: opPrepare, Tpl: i})
		for _, p := range policies {
			out = append(out, g.single(0, p))
		}
		b := op{Kind: opBatch, Tpl: i, Policy: "frontier"}
		for j := 0; j < batchPoints; j++ {
			b.Points = append(b.Points, g.point(0))
		}
		out = append(out, b)
	}
	return out, nil
}

// launch starts a fresh server and brings it to ready: listening, with
// the workload's preload done.
func (w *scenario) launch(bin, logPath string) (*server, error) {
	srv, err := startServer(bin, logPath, w.args)
	if err != nil {
		return nil, err
	}
	if len(w.preload) == 0 {
		return srv, nil
	}
	ops := make([]op, len(w.preload))
	for i, t := range w.preload {
		ops[i] = op{Kind: opPrepare, Tpl: t, DeadlineMs: w.preloadDeadline}
	}
	// One preload client: each Prepare runs alone, with the idle pool
	// worker donated to it.
	recs := make([]rec, len(ops))
	var buf bytes.Buffer
	for i := range ops {
		path, b := w.body(&ops[i])
		a, lat, err := srv.post(context.Background(), path, b, &buf)
		recs[i] = rec{op: &ops[i], lat: lat, status: a.Status, body: canonicalPrepare(a).Body, err: err}
	}
	for _, r := range recs {
		if r.err != nil || r.status != http.StatusOK {
			srv.stop()
			return nil, fmt.Errorf("preload %v: status %d: %v %s", w.tpls[r.op.Tpl], r.status, r.err, r.body)
		}
	}
	w.lastPreload = recs
	w.allPreloads = append(w.allPreloads, recs...)
	if err := w.awaitRefinement(srv); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

// awaitRefinement polls the server until its refinement ledger is
// settled: nothing pending or running, every scheduled job accounted.
func (w *scenario) awaitRefinement(srv *server) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := srv.stats()
		if err != nil {
			return err
		}
		r := st.Refine
		w.setupPending = max(w.setupPending, r.Pending)
		if r.Pending == 0 && r.Running == 0 && r.Scheduled == r.Completed+r.Cancelled+r.Failed+r.Skipped {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("refinement still running after 2m: %+v", r)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deadlineCtx bounds a Prepare by deadlineMs (0 = unbounded).
func deadlineCtx(deadlineMs int64) (context.Context, context.CancelFunc) {
	if deadlineMs > 0 {
		return context.WithTimeout(context.Background(), time.Duration(deadlineMs)*time.Millisecond)
	}
	return context.Background(), func() {}
}

// body encodes an op as its HTTP request.
func (w *scenario) body(o *op) (string, []byte) {
	if o.Kind == opPrepare {
		return "/prepare", prepareBody(w.tpls[o.Tpl], o.DeadlineMs)
	}
	path := "/pick"
	if o.Kind == opBatch {
		path = "/pickbatch"
	}
	return path, pickBody(w.keys[o.Tpl], *o)
}

// measure runs the timed phase against a ready server.
func (w *scenario) measure(srv *server, d time.Duration) (*measurement, error) {
	m := &measurement{preload: w.lastPreload}
	for _, r := range w.allPreloads {
		m.setupPrepares = append(m.setupPrepares, r.lat)
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	steal0, total0 := stealTicks()
	m.recs, m.elapsed = runClient(srv, d, w.ops, w.cyclic, w.body)
	steal1, total1 := stealTicks()
	m.stealShare = ratio(float64(steal1-steal0), float64(total1-total0))
	err = m.finish(srv, cpu0)
	m.stats.pendingMax = max(m.stats.pendingMax, w.setupPending)
	return m, err
}

// verify answers every recorded request on the in-process reference and
// compares: byte for byte for picks, field for field (minus timing) for
// prepares. An operation fails when its answer did not arrive, is not
// the reference's, or is a Prepare that did not succeed. A pick point
// whose answer is the reference's error or empty frontier does not
// fail: it is counted apart (empty), and classified by Theorem 3.
func (w *scenario) verify(m *measurement) {
	report := func(o *op, what string) {
		m.mismatches++
		if m.mismatches <= 5 {
			fmt.Fprintf(os.Stderr, "servebench: MISMATCH %s on %v: %s\n", o.Kind, w.tpls[o.Tpl], what)
		}
	}
	checkPrepare := func(r rec, setup bool) {
		m.attempted++
		if r.err != nil {
			m.failed++
			m.transportErrs++
			return
		}
		want, ok := w.prepared[r.op.Tpl]
		if !setup || !ok {
			pctx, cancel := deadlineCtx(r.op.DeadlineMs)
			res, err := w.ref.Prepare(pctx, serve.Template{Workload: w.tpls[r.op.Tpl].config()})
			cancel()
			want = prepareAnswer(res, err)
			if err == nil {
				w.recordCands(w.ref, res.Key)
			}
		}
		mismatch := r.status != want.Status || string(r.body) != string(want.Body)
		if mismatch {
			report(r.op, fmt.Sprintf("got %d %s want %d %s", r.status, r.body, want.Status, want.Body))
		}
		if mismatch || r.status != http.StatusOK {
			m.failed++
		}
	}
	for _, r := range m.preload {
		checkPrepare(r, true)
	}
	for _, r := range m.recs {
		if r.op.Kind == opPrepare {
			checkPrepare(r, false)
		} else {
			w.checkPick(m, r, report)
		}
	}
}

// checkPick verifies one pick or batch against the reference.
func (w *scenario) checkPick(m *measurement, r rec, report func(*op, string)) {
	ctx := context.Background()
	o := r.op
	key := w.keys[o.Tpl]
	n := int64(len(o.Points))
	m.attempted += n
	if r.err != nil {
		m.failed += n
		m.transportErrs++
		return
	}
	var want answer
	var empty []bool // per point: no plan answered
	if o.Kind == opBatch {
		res, err := w.ref.PickBatch(ctx, serve.PickBatchRequest{Key: key, Points: o.Points, Policy: serve.Policy(o.Policy)})
		want = batchAnswer(res, err)
		empty = make([]bool, len(o.Points))
		for i := range empty {
			empty[i] = err != nil || len(res.Choices[i]) == 0
		}
	} else {
		res, err := w.ref.Pick(ctx, serve.PickRequest{Key: key, Point: o.Points[0], Policy: serve.Policy(o.Policy),
			Weights: o.Weights, Minimize: o.Minimize, Bounds: o.Bounds, Order: o.Order})
		want = pickAnswer(res, err)
		empty = []bool{err != nil || len(res.Choices) == 0}
	}
	if r.status != want.Status || r.dig != digestOf(want) {
		report(o, fmt.Sprintf("answer differs from the reference (status %d, want %d)", r.status, want.Status))
		m.failed += n
	}
	for i, e := range empty {
		if !e {
			continue
		}
		m.empty++
		if !w.complete(key, o.Points[i]) {
			m.uncovered++
		}
	}
}
