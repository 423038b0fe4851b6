package store

import (
	"bytes"
	"testing"

	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/pwl"
	"mpq/internal/selection"
	"mpq/internal/workload"
)

// FuzzStoreLoad feeds arbitrary bytes to Load, the reader of documents
// from shared stores and peers. Load must never panic; a document it
// accepts must serve — its pick index materializes leaf views and
// locates points without panicking — and saving it must reach a fixed
// point: Save∘Load applied to its own output changes nothing.
func FuzzStoreLoad(f *testing.F) {
	valid, bad := badDocuments()
	f.Add([]byte(valid))
	for _, tc := range bad {
		f.Add([]byte(tc.doc))
	}
	f.Add(saveIndexed(f, workload.Config{Tables: 3, Params: 2, Shape: workload.Chain, Seed: 5}))
	f.Fuzz(func(t *testing.T, doc []byte) {
		ps, err := Load(bytes.NewReader(doc))
		if err != nil {
			return
		}
		once := resave(t, ps)
		again, err := Load(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("Load rejects what Save wrote: %v", err)
		}
		if twice := resave(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("Save∘Load is not idempotent:\n%s\n%s", once, twice)
		}
		if ps.Index == nil {
			return
		}
		cands := make([]selection.Candidate, len(ps.Plans))
		for i, lp := range ps.Plans {
			cands[i] = selection.Candidate{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
		}
		views := ps.Index.LeafCandidates(cands)
		snap := ps.Index.Snapshot()
		lo, hi := geometry.Vector(snap.Lo), geometry.Vector(snap.Hi)
		for _, f := range []float64{0, 0.25, 0.5, 1} {
			x := geometry.NewVector(len(lo))
			for d := range x {
				x[d] = lo[d] + f*(hi[d]-lo[d])
			}
			if leaf, ids, ok := ps.Index.Locate(x); ok && len(views[leaf]) != len(ids) {
				t.Fatalf("leaf %d: %d views for %d candidates", leaf, len(views[leaf]), len(ids))
			}
		}
	})
}

// saveIndexed optimizes a workload and saves it with its pick index.
func saveIndexed(tb testing.TB, cfg workload.Config) []byte {
	tb.Helper()
	schema, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	solver := geometry.NewContext()
	model, err := cloud.NewModel(schema, cloud.DefaultConfig(), solver)
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Context = solver
	res, err := core.Optimize(schema, model, opts)
	if err != nil {
		tb.Fatal(err)
	}
	cands := make([]selection.Candidate, len(res.Plans))
	for i, info := range res.Plans {
		cands[i] = selection.Candidate{Plan: info.Plan, Cost: info.Cost.(*pwl.Multi), RR: info.RR}
	}
	ix, err := index.Build(solver, model.Space(), cands, index.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveIndexedEpsilon(&buf, model.MetricNames(), model.Space(), res.Plans, ix, 0); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// resave writes a loaded plan set back out, index and ε included.
func resave(t *testing.T, ps *PlanSet) []byte {
	t.Helper()
	infos := make([]*core.PlanInfo, len(ps.Plans))
	for i, lp := range ps.Plans {
		infos[i] = &core.PlanInfo{Plan: lp.Plan, Cost: lp.Cost, RR: lp.RR}
	}
	var buf bytes.Buffer
	if err := SaveIndexedEpsilon(&buf, ps.Metrics, ps.Space, infos, ps.Index, ps.Epsilon); err != nil {
		t.Fatalf("Save of a loaded set: %v", err)
	}
	return buf.Bytes()
}
