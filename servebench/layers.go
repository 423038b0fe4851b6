package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/fleet"
	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/obs"
	"mpq/internal/pwl"
	"mpq/internal/selection"
	"mpq/internal/serve"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent indexes the span that made the call (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer records spans in memory from a single goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a new request: following spans share its id.
func (t *tracer) request() { t.req++ }

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.t0))
	t.open = t.open[:n]
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerCounts are the replay's deterministic counts: a function of the
// workload seed alone. The optimizer's counts are the same for every
// seed; Points, Uncovered and Digest follow the request stream.
type layerCounts struct {
	CreatedPlans, FinalPlans                    int64
	LPs, LPIterations, FastPathLPs, RegionDiffs int64
	Leaves, LeafCandidates                      int64
	Points, Uncovered                           int64
	// Digest fingerprints every replayed answer.
	Digest string
}

// layerSizes are the replay's measured sizes and timings that are not
// spans.
type layerSizes struct {
	docBytes int64
	docs     int64
	locateNs float64
}

// replayEntry is one replayed plan set, loaded the way the server
// loads it.
type replayEntry struct {
	cands     []selection.Candidate
	leafCands [][]selection.Candidate
	ix        *index.Index
}

// layerReplay replays the workload's fixed prefix by calling each
// layer's public functions directly, with a span around every call:
// per template core.Optimize, index.Build, store.Save, a shared-store
// round trip (fleet.DirStore Put and Get) and store.Load; per pick
// point index.Locate and the selection policy.
func (w *scenario) layerReplay(tr *tracer, storeDir string) (layerCounts, layerSizes, error) {
	var c layerCounts
	var sz layerSizes
	ds, err := fleet.NewDirStore(storeDir)
	if err != nil {
		return c, sz, err
	}
	sol := geometry.NewSolver(geometry.Config{})
	entries := map[int]*replayEntry{}
	for _, ti := range w.prefixTpls {
		e, doc, err := w.replayPrepare(tr, sol, ds, ti, &c)
		if err != nil {
			return c, sz, err
		}
		entries[ti] = e
		sz.docBytes += int64(len(doc))
		sz.docs++
	}

	h := sha256.New()
	for _, j := range w.prefix {
		o := &w.ops[j]
		e := entries[o.Tpl]
		tr.request()
		tr.begin("replay." + o.Kind.String())
		for _, x := range o.Points {
			c.Points++
			if !coveredBy(e.cands, x) {
				c.Uncovered++
			}
			cands := e.cands
			tr.begin("index.Locate")
			leaf, _, ok := e.ix.Locate(x)
			tr.end()
			if ok {
				cands = e.leafCands[leaf]
			}
			replayPolicy(tr, h, cands, x, o)
		}
		tr.end()
	}
	c.Digest = hex.EncodeToString(h.Sum(nil))

	// index.Locate alone, untraced: the spans above are dominated by the
	// clock reads around a sub-microsecond call.
	var n int64
	start := time.Now()
	for rep := 0; rep < 20; rep++ {
		for _, j := range w.prefix {
			o := &w.ops[j]
			ix := entries[o.Tpl].ix
			for _, x := range o.Points {
				ix.Locate(x)
				n++
			}
		}
	}
	sz.locateNs = ratio(float64(time.Since(start).Nanoseconds()), float64(n))
	return c, sz, nil
}

// replayPrepare optimizes, indexes, saves, publishes, fetches and loads
// one template, each step under its layer's span.
func (w *scenario) replayPrepare(tr *tracer, sol *geometry.Solver, ds *fleet.DirStore, ti int, c *layerCounts) (*replayEntry, []byte, error) {
	t := w.tpls[ti]
	tr.request()
	tr.begin("replay.prepare")
	defer tr.end()
	schema, err := workload.Generate(t.config())
	if err != nil {
		return nil, nil, err
	}
	model, err := cloud.NewModel(schema, cloud.DefaultConfig(), sol)
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Context, opts.Workers = sol, 1
	tr.begin("core.Optimize")
	res, err := core.OptimizeCtx(context.Background(), schema, model, opts)
	tr.end()
	if err != nil {
		return nil, nil, fmt.Errorf("optimize %v: %w", t, err)
	}
	st := res.Stats
	c.CreatedPlans += int64(st.CreatedPlans)
	c.FinalPlans += int64(st.FinalPlans)
	c.LPs += st.Geometry.LPs
	c.LPIterations += st.Geometry.LPIterations
	c.FastPathLPs += st.Geometry.FastPathLPs
	c.RegionDiffs += st.Geometry.RegionDiffs

	cands := make([]selection.Candidate, len(res.Plans))
	for j, p := range res.Plans {
		cands[j] = selection.Candidate{Plan: p.Plan, Cost: p.Cost.(*pwl.Multi), RR: p.RR}
	}
	tr.begin("index.Build")
	ix, err := index.Build(sol, model.Space(), cands, index.Options{Workers: w.opts.Workers})
	tr.end()
	if err != nil {
		return nil, nil, fmt.Errorf("index %v: %w", t, err)
	}
	var buf bytes.Buffer
	tr.begin("store.Save")
	err = store.SaveIndexedEpsilon(&buf, model.MetricNames(), model.Space(), res.Plans, ix, 0)
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	key := w.keys[ti]
	tr.begin("fleet.DirStore.Put")
	err = ds.Put(key, buf.Bytes())
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	tr.begin("fleet.DirStore.Get")
	doc, ok, err := ds.Get(key)
	tr.end()
	if err != nil || !ok {
		return nil, nil, fmt.Errorf("shared store lost %v: %v", t, err)
	}
	tr.begin("store.Load")
	set, err := store.Load(bytes.NewReader(doc))
	tr.end()
	if err != nil {
		return nil, nil, err
	}
	e := &replayEntry{ix: set.Index, cands: make([]selection.Candidate, len(set.Plans))}
	for j, p := range set.Plans {
		e.cands[j] = selection.Candidate{Plan: p.Plan, Cost: p.Cost, RR: p.RR}
	}
	if e.ix == nil {
		return nil, nil, fmt.Errorf("document of %v carries no index", t)
	}
	e.leafCands = e.ix.LeafCandidates(e.cands)
	c.Leaves += int64(e.ix.Leaves())
	c.LeafCandidates += e.ix.LeafCandidateTotal()
	return e, doc, nil
}

// replayPolicy runs one pick point's selection policy under its span
// and folds the answer into the digest.
func replayPolicy(tr *tracer, h hash.Hash, cands []selection.Candidate, x geometry.Vector, o *op) {
	var cs []selection.Choice
	var err error
	one := func(c selection.Choice, e error) {
		cs, err = []selection.Choice{c}, e
	}
	switch o.Policy {
	case "frontier":
		tr.begin("selection.Frontier")
		cs = selection.Frontier(cands, x)
	case "weighted":
		tr.begin("selection.WeightedSum")
		one(selection.WeightedSum(cands, x, o.Weights))
	case "bound":
		tr.begin("selection.MinimizeSubjectTo")
		one(selection.MinimizeSubjectTo(cands, x, o.Minimize, o.Bounds))
	case "lex":
		tr.begin("selection.Lexicographic")
		one(selection.Lexicographic(cands, x, o.Order))
	}
	tr.end()
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	for _, c := range cs {
		fmt.Fprintf(h, "%s %v\n", c.Plan, c.Cost)
	}
	h.Write([]byte{'\n'})
}

func coveredBy(cands []selection.Candidate, x geometry.Vector) bool {
	for _, c := range cands {
		if c.RR == nil || c.RR.Contains(x, selection.ContainsEps) {
			return true
		}
	}
	return false
}

// serveTimes are the in-process serving layer's latencies, per prefix
// request (indexed like scenario.prefix).
type serveTimes struct {
	untraced, traced         []time.Duration
	queueWait, admissionWait []time.Duration
}

// serveReplay replays the prefix through an in-process serve.Server with
// the subprocess's options: the Prepares, one untimed warm-up pass over
// the picks, then each pick twice, once without spans and once traced
// (the difference is the tracing overhead), alternating which goes
// first so that neither gains from the other warming the caches.
func (w *scenario) serveReplay(tr *tracer) (*serveTimes, error) {
	opts := w.opts
	ring := obs.NewTraceRing(4096)
	opts.Trace = ring
	s := serve.New(opts)
	defer s.Close()
	ctx := context.Background()
	for _, ti := range w.prefixTpls {
		// The deadline set-up's Prepares carry: picks-hot's take the
		// anytime path, as on the server.
		pctx, cancel := deadlineCtx(w.preloadDeadline)
		tr.request()
		tr.begin("serve.Prepare")
		_, err := s.Prepare(pctx, serve.Template{Workload: w.tpls[ti].config()})
		tr.end()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("replay prepare %v: %w", w.tpls[ti], err)
		}
	}
	if err := s.WaitRefinement(ctx); err != nil {
		return nil, err
	}
	pick := func(o *op) {
		key := w.keys[o.Tpl]
		if o.Kind == opBatch {
			s.PickBatch(ctx, serve.PickBatchRequest{Key: key, Points: o.Points, Policy: serve.Policy(o.Policy)})
			return
		}
		s.Pick(ctx, serve.PickRequest{Key: key, Point: o.Points[0], Policy: serve.Policy(o.Policy),
			Weights: o.Weights, Minimize: o.Minimize, Bounds: o.Bounds, Order: o.Order})
	}
	for _, j := range w.prefix {
		pick(&w.ops[j])
	}
	st := &serveTimes{untraced: make([]time.Duration, len(w.prefix)), traced: make([]time.Duration, len(w.prefix))}
	for i, j := range w.prefix {
		o := &w.ops[j]
		for k := 0; k < 2; k++ {
			start := time.Now()
			if traced := (i+k)%2 == 1; traced {
				tr.request()
				tr.begin("serve." + map[opKind]string{opPick: "Pick", opBatch: "PickBatch"}[o.Kind])
				pick(o)
				tr.end()
				st.traced[i] = time.Since(start)
			} else {
				pick(o)
				st.untraced[i] = time.Since(start)
			}
		}
	}
	for _, ev := range ring.Events() {
		for _, p := range ev.Phases {
			switch p.Name {
			case "queue_wait":
				st.queueWait = append(st.queueWait, p.Duration)
			case "admission_wait":
				st.admissionWait = append(st.admissionWait, p.Duration)
			}
		}
	}
	return st, nil
}

// overheads pairs the timed run's HTTP latencies with the in-process
// replay's on the same requests: the prefix requests the timed run
// answered (each time it sent them, when its list cycles). It returns
// the latency samples per kind: HTTP, in-process untraced and traced.
func (w *scenario) overheads(m *measurement, st *serveTimes) (http, inproc, traced map[opKind][]time.Duration) {
	pos := map[int]int{} // request list index -> prefix position
	for i, j := range w.prefix {
		pos[j] = i
	}
	seen := make([]bool, len(w.prefix))
	http, inproc, traced = map[opKind][]time.Duration{}, map[opKind][]time.Duration{}, map[opKind][]time.Duration{}
	for _, r := range m.recs {
		if i, ok := pos[r.idx]; ok && r.err == nil {
			http[r.op.Kind] = append(http[r.op.Kind], r.lat)
			seen[i] = true
		}
	}
	for i, j := range w.prefix {
		if seen[i] {
			k := w.ops[j].Kind
			inproc[k] = append(inproc[k], st.untraced[i])
			traced[k] = append(traced[k], st.traced[i])
		}
	}
	return http, inproc, traced
}

// layers runs the traced replays under a CPU profile and assembles the
// per-layer metrics, combining them with the timed run's answers and
// the subprocess's counters.
func (w *scenario) layers(m *measurement, spanPath string) (map[string]metric, error) {
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	counts, sz, err := w.layerReplay(tr, filepath.Join(w.dir, "replay-store"))
	var st *serveTimes
	if err == nil {
		st, err = w.serveReplay(tr)
	}
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	shares, cumShares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	self := tr.selfTimes()
	http, inproc, traced := w.overheads(m, st)
	pickPoints := float64(len(m.picks) + batchPoints*len(m.batches))
	mt := func(v float64, unit string) metric { return metric{v, unit} }
	out := map[string]metric{
		"mpqserve.pick_overhead_us":         mt(us(median(http[opPick])-median(inproc[opPick])), "us"),
		"mpqserve.pickbatch_overhead_ms":    mt(ms(median(http[opBatch])-median(inproc[opBatch])), "ms"),
		"mpqserve.response_bytes_per_point": mt(ratio(float64(m.batchBytes), float64(batchPoints*len(m.batches))), "bytes"),

		"serve.pick_us":                mt(us(median(inproc[opPick])), "us"),
		"serve.pickbatch_us_per_point": mt(us(median(inproc[opBatch]))/batchPoints, "us"),
		"serve.queue_wait_ms":          mt(ms(mean(st.queueWait)), "ms"),
		"serve.admission_wait_ms":      mt(ms(mean(st.admissionWait)), "ms"),
		"serve.rejected":               mt(float64(m.stats.rejected), "count"),

		"index.locate_ns":                 mt(sz.locateNs, "ns"),
		"index.avg_leaf_candidates":       mt(ratio(float64(counts.LeafCandidates), float64(counts.Leaves)), "count"),
		"index.index_pick_ratio":          mt(ratio(float64(m.stats.indexPicks), float64(m.stats.indexPicks+m.stats.fallbackPicks)), "ratio"),
		"index.build_ms":                  mt(ms(mean(tr.durations("index.Build"))), "ms"),
		"index.leaves":                    mt(float64(counts.Leaves), "count"),
		"selection.frontier_us":           mt(us(mean(tr.durations("selection.Frontier"))), "us"),
		"selection.weighted_us":           mt(us(mean(tr.durations("selection.WeightedSum"))), "us"),
		"selection.uncovered_point_ratio": mt(ratio(float64(m.uncovered), pickPoints), "ratio"),

		"core.optimize_ms":          mt(ms(mean(tr.durations("core.Optimize"))), "ms"),
		"core.created_plans":        mt(float64(counts.CreatedPlans), "count"),
		"core.final_plans":          mt(float64(counts.FinalPlans), "count"),
		"core.pipeline_utilization": mt(m.stats.pipelineUtil, "ratio"),
		"core.donated_masks":        mt(float64(m.stats.donatedMasks), "count"),
		"core.split_jobs":           mt(float64(m.stats.splitJobs), "count"),
		"geometry.lps":              mt(float64(counts.LPs), "count"),
		"geometry.lp_iterations":    mt(float64(counts.LPIterations), "count"),
		"geometry.fast_path_lps":    mt(float64(counts.FastPathLPs), "count"),
		"geometry.region_diffs":     mt(float64(counts.RegionDiffs), "count"),

		"store.save_us": mt(us(mean(tr.durations("store.Save"))), "us"),
		"store.load_us": mt(us(mean(tr.durations("store.Load"))), "us"),
		"store.doc_kb":  mt(ratio(float64(sz.docBytes), float64(sz.docs))/1024, "KB"),

		"fleet.cache_hit_ratio":       mt(ratio(float64(m.stats.cacheHits), float64(m.stats.cacheHits+m.stats.cacheMisses)), "ratio"),
		"fleet.reloads_per_1k_points": mt(ratio(float64(m.stats.reloads)*1000, float64(m.stats.picks)), "count"),
		"fleet.dirstore_get_us":       mt(us(mean(tr.durations("fleet.DirStore.Get"))), "us"),

		"refine.coarse_prepares": mt(float64(m.stats.coarsePrepares), "count"),
		"refine.swaps":           mt(float64(m.stats.swaps), "count"),
		"refine.pending_max":     mt(float64(m.stats.pendingMax), "count"),

		"trace.overhead_us": mt(us(median(traced[opPick])-median(inproc[opPick])), "us"),
	}
	for _, l := range []string{"serve", "core", "index", "selection", "store", "fleet"} {
		out["selftime_ms."+l] = mt(ms(self[l]), "ms")
	}
	for _, p := range sharePackages {
		out["cpu_share."+p.name] = mt(shares[p.name], "ratio")
	}
	fmt.Fprintf(os.Stderr, "servebench: replay counts %+v\nservebench: cumulative CPU shares %v\nservebench: spans written to %s\n", counts, cumShares, spanPath)
	return out, nil
}
