package index_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/pwl"
	"mpq/internal/selection"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// The frozen references below are the full-scan index algorithms the
// narrowing build and the shared leaf views replaced: every cell tests
// every cutout, constraint and piece from scratch, and every leaf gets
// its own restricted copies. They pin the contract that the optimized
// code produces the same trees (hence the same stored documents and
// cache keys) and views that answer every pick identically.

const (
	refCellStrictEps = 1e-6
	refCellRelEps    = geometry.CompareEps
	refBoxPadFactor  = 1e-6
	refProbeDepth    = 4
)

// refSnapshot builds the reference tree for cands with the default
// build options and returns it in serialized form.
func refSnapshot(t *testing.T, s *geometry.Solver, space *geometry.Polytope, cands []selection.Candidate) *index.Snapshot {
	t.Helper()
	const leafTarget, maxDepth, maxLeaves = 4, 16, 4096
	lo, hi, ok := s.BoundingBox(space)
	if !ok {
		t.Fatal("parameter space without bounding box")
	}
	for i := range lo {
		pad := refBoxPadFactor * (1 + math.Abs(hi[i]-lo[i]))
		lo[i] -= pad
		hi[i] += pad
	}
	ids := make([]int32, len(cands))
	for i := range ids {
		ids[i] = int32(i)
	}
	snap := &index.Snapshot{LeafTarget: leafTarget, MaxDepth: maxDepth, MaxLeaves: maxLeaves,
		Lo: append([]float64(nil), lo...), Hi: append([]float64(nil), hi...)}
	var build func(lo, hi geometry.Vector, ids []int32, depth, budget int) int
	build = func(lo, hi geometry.Vector, ids []int32, depth, budget int) int {
		at := len(snap.Nodes)
		snap.Nodes = append(snap.Nodes, index.SnapshotNode{})
		prunable := 0
		for _, id := range ids {
			if refPrunable(cands[id]) {
				prunable++
			}
		}
		if prunable <= leafTarget || depth >= maxDepth || budget < 2 || !refRefinable(cands, lo, hi, ids) {
			snap.Nodes[at] = index.SnapshotNode{Cands: ids}
			return at
		}
		d := 0
		for i := 1; i < len(lo); i++ {
			if hi[i]-lo[i] > hi[d]-lo[d] {
				d = i
			}
		}
		split := (lo[d] + hi[d]) / 2
		if !(split > lo[d] && split < hi[d]) {
			snap.Nodes[at] = index.SnapshotNode{Cands: ids}
			return at
		}
		leftHi := hi.Clone()
		leftHi[d] = split
		rightLo := lo.Clone()
		rightLo[d] = split
		leftIDs := refFilter(cands, lo, leftHi, ids)
		rightIDs := refFilter(cands, rightLo, hi, ids)
		lb := (budget + 1) / 2
		l := build(lo, leftHi, leftIDs, depth+1, lb)
		r := build(rightLo, hi, rightIDs, depth+1, budget-lb)
		snap.Nodes[at] = index.SnapshotNode{Dim: d, Split: split, Left: l, Right: r}
		return at
	}
	build(lo, hi, ids, 0, maxLeaves)
	return snap
}

func refPrunable(c selection.Candidate) bool { return c.RR != nil && c.RR.NumCutouts() > 0 }

func refRefinable(cands []selection.Candidate, lo, hi geometry.Vector, ids []int32) bool {
	for _, id := range ids {
		c := cands[id]
		if !refPrunable(c) {
			continue
		}
		for _, cut := range c.RR.Cutouts() {
			if !refBoxDisjoint(lo, hi, cut) {
				return true
			}
		}
	}
	return false
}

func refFilter(cands []selection.Candidate, lo, hi geometry.Vector, ids []int32) []int32 {
	out := make([]int32, 0, len(ids))
	for _, id := range ids {
		c := cands[id]
		if refPrunable(c) && refUnionCovers(c.RR.Cutouts(), lo, hi, refProbeDepth) {
			continue
		}
		out = append(out, id)
	}
	return out
}

func refBoxDisjoint(lo, hi geometry.Vector, c *geometry.Polytope) bool {
	for _, h := range c.Constraints() {
		mn := 0.0
		for i, w := range h.W {
			if w > 0 {
				mn += w * lo[i]
			} else {
				mn += w * hi[i]
			}
		}
		if mn > h.B {
			return true
		}
	}
	return false
}

func refUnionCovers(cutouts []*geometry.Polytope, lo, hi geometry.Vector, depth int) bool {
	overlapping := 0
	for _, c := range cutouts {
		if refBoxStrictlyInside(lo, hi, c) {
			return true
		}
		if !refBoxDisjoint(lo, hi, c) {
			overlapping++
		}
	}
	if depth == 0 || overlapping < 2 {
		return false
	}
	rest := make([]*geometry.Polytope, 0, overlapping)
	for _, c := range cutouts {
		if !refBoxDisjoint(lo, hi, c) {
			rest = append(rest, c)
		}
	}
	d := 0
	for i := 1; i < len(lo); i++ {
		if hi[i]-lo[i] > hi[d]-lo[d] {
			d = i
		}
	}
	mid := (lo[d] + hi[d]) / 2
	if !(mid > lo[d] && mid < hi[d]) {
		return false
	}
	leftHi := hi.Clone()
	leftHi[d] = mid
	if !refUnionCovers(rest, lo, leftHi, depth-1) {
		return false
	}
	rightLo := lo.Clone()
	rightLo[d] = mid
	return refUnionCovers(rest, rightLo, hi, depth-1)
}

func refBoxStrictlyInside(lo, hi geometry.Vector, c *geometry.Polytope) bool {
	for _, h := range c.Constraints() {
		m := 0.0
		scale := math.Abs(h.B)
		for i, w := range h.W {
			if w > 0 {
				m += w * hi[i]
			} else {
				m += w * lo[i]
			}
			scale += math.Abs(w) * math.Max(math.Abs(lo[i]), math.Abs(hi[i]))
		}
		if m > h.B-refCellStrictEps-refCellRelEps*scale {
			return false
		}
	}
	return true
}

// refRestrict is the reference per-leaf view: the candidate restricted
// to the cell from scratch, with fresh copies. cutSig and pieceSig name
// its decision — the kept cutouts with their kept constraint indices,
// and the kept piece indices per metric.
func refRestrict(c selection.Candidate, lo, hi geometry.Vector) (v selection.Candidate, cutSig, pieceSig string) {
	if c.RR != nil {
		var kept []*geometry.Polytope
		for j, cut := range c.RR.Cutouts() {
			if trimmed, hs, ok := refTrimCutout(cut, lo, hi); ok {
				kept = append(kept, trimmed)
				cutSig += fmt.Sprintf("%d%v;", j, hs)
			}
		}
		if len(kept) == 0 {
			c.RR = nil
		} else {
			c.RR = c.RR.ContainmentView(kept)
		}
	}
	m := c.Cost
	comps := make([]*pwl.Function, m.NumMetrics())
	changed := false
	for k := range comps {
		f := m.Component(k)
		pieces := f.Pieces()
		var keep []int
		for i := range pieces {
			if !refPieceExcluded(&pieces[i], lo, hi) {
				keep = append(keep, i)
			}
		}
		pieceSig += fmt.Sprintf("%v;", keep)
		if len(keep) < len(pieces) {
			comps[k] = f.Restrict(keep)
			changed = true
		} else {
			comps[k] = f
		}
	}
	if changed {
		c.Cost = pwl.NewMulti(comps...)
	}
	return c, cutSig, pieceSig
}

func refTrimCutout(c *geometry.Polytope, lo, hi geometry.Vector) (*geometry.Polytope, []int, bool) {
	hs := c.Constraints()
	var kept []geometry.Halfspace
	var idx []int
	for k, h := range hs {
		mn, mx := 0.0, 0.0
		scale := math.Abs(h.B)
		for i, w := range h.W {
			if w > 0 {
				mn += w * lo[i]
				mx += w * hi[i]
			} else {
				mn += w * hi[i]
				mx += w * lo[i]
			}
			scale += math.Abs(w) * math.Max(math.Abs(lo[i]), math.Abs(hi[i]))
		}
		margin := refCellStrictEps + refCellRelEps*scale
		if mn-h.B > margin {
			return nil, nil, false
		}
		if mx <= h.B-margin {
			continue
		}
		kept = append(kept, h)
		idx = append(idx, k)
	}
	if len(kept) == len(hs) {
		return c, idx, true
	}
	return geometry.NewPolytope(c.Dim(), kept...), idx, true
}

func refPieceExcluded(p *pwl.Piece, lo, hi geometry.Vector) bool {
	for _, h := range p.Region.Constraints() {
		nrm := h.W.NormInf()
		if nrm < 1e-300 {
			continue
		}
		s := 1 / nrm
		mn := 0.0
		scale := math.Abs(h.B) * s
		for i, w := range h.W {
			w *= s
			if w > 0 {
				mn += w * lo[i]
			} else {
				mn += w * hi[i]
			}
			scale += math.Abs(w) * math.Max(math.Abs(lo[i]), math.Abs(hi[i]))
		}
		if mn-h.B*s > refCellStrictEps+refCellRelEps*scale {
			return true
		}
	}
	return false
}

// snapshotLeaves visits every leaf of a serialized tree with its cell.
func snapshotLeaves(s *index.Snapshot, fn func(leaf int, lo, hi geometry.Vector)) {
	var walk func(i int, lo, hi geometry.Vector)
	walk = func(i int, lo, hi geometry.Vector) {
		n := s.Nodes[i]
		if n.Right == 0 {
			fn(i, lo, hi)
			return
		}
		leftHi := hi.Clone()
		leftHi[n.Dim] = n.Split
		walk(n.Left, lo, leftHi)
		rightLo := lo.Clone()
		rightLo[n.Dim] = n.Split
		walk(n.Right, rightLo, hi)
	}
	walk(0, geometry.Vector(s.Lo).Clone(), geometry.Vector(s.Hi).Clone())
}

// referenceSet is one optimized plan set of the reference matrix.
type referenceSet struct {
	ps     *store.PlanSet
	cands  []selection.Candidate
	solver *geometry.Solver
}

var (
	referenceOnce sync.Once
	referenceSets map[string]referenceSet
)

// referenceMatrix returns the plan sets the reference tests cover:
// chain/star/cycle/clique × 1 and 2 parameters × 3 seeds, 4 tables,
// optimized once per test binary.
func referenceMatrix(t *testing.T) map[string]referenceSet {
	referenceOnce.Do(func() {
		referenceSets = map[string]referenceSet{}
		for _, shape := range []workload.Shape{workload.Chain, workload.Star, workload.Cycle, workload.Clique} {
			for _, params := range []int{1, 2} {
				for _, seed := range []int64{1, 2, 3} {
					cfg := workload.Config{Tables: 4, Params: params, Shape: shape, Seed: seed}
					ps, cands, solver := loadSet(t, cfg)
					referenceSets[fmt.Sprintf("%s-%dp-s%d", shape, params, seed)] = referenceSet{ps, cands, solver}
				}
			}
		}
	})
	return referenceSets
}

// referenceNames lists the matrix in a fixed order.
func referenceNames() []string {
	var names []string
	for _, shape := range []string{"chain", "star", "cycle", "clique"} {
		for _, params := range []int{1, 2} {
			for _, seed := range []int{1, 2, 3} {
				names = append(names, fmt.Sprintf("%s-%dp-s%d", shape, params, seed))
			}
		}
	}
	return names
}

// TestBuildMatchesReferenceTree: the narrowing build produces exactly
// the full-scan reference tree, at any build parallelism.
func TestBuildMatchesReferenceTree(t *testing.T) {
	sets := referenceMatrix(t)
	for _, name := range referenceNames() {
		set := sets[name]
		want := refSnapshot(t, set.solver, set.ps.Space, set.cands)
		for _, workers := range []int{1, 4} {
			ix, err := index.Build(set.solver, set.ps.Space, set.cands, index.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := ix.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: tree differs from the reference (%d vs %d nodes)",
					name, workers, len(got.Nodes), len(want.Nodes))
			}
		}
	}
}

// TestSharedLeafViewsMatchUnshared: every leaf's shared views equal the
// reference's fresh per-leaf copies — structurally, and through every
// selection policy at random points of the leaf — and candidates that
// decide alike in two leaves get pointer-equal RR and Cost views, while
// different decisions never share one.
func TestSharedLeafViewsMatchUnshared(t *testing.T) {
	sets := referenceMatrix(t)
	workers := buildWorkers(t)
	for _, name := range referenceNames() {
		set := sets[name]
		ix, err := index.Build(set.solver, set.ps.Space, set.cands, index.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		views := ix.LeafCandidates(set.cands)
		rng := rand.New(rand.NewSource(int64(len(name))))
		type shared struct {
			cut, piece map[string]any
			rr         map[any]string
			cost       map[any]string
		}
		per := make([]shared, len(set.cands))
		for i := range per {
			per[i] = shared{map[string]any{}, map[string]any{}, map[any]string{}, map[any]string{}}
		}
		pairs, restricted := 0, 0
		snapshotLeaves(ix.Snapshot(), func(leaf int, lo, hi geometry.Vector) {
			ids := ix.Snapshot().Nodes[leaf].Cands
			got := views[leaf]
			if len(got) != len(ids) {
				t.Fatalf("%s leaf %d: %d views for %d candidates", name, leaf, len(got), len(ids))
			}
			want := make([]selection.Candidate, len(ids))
			for i, id := range ids {
				v, cutSig, pieceSig := refRestrict(set.cands[id], lo, hi)
				want[i] = v
				if !reflect.DeepEqual(got[i], v) {
					t.Fatalf("%s leaf %d candidate %d: shared view differs from the reference", name, leaf, id)
				}
				// Decisions and view pointers must correspond one to one.
				sh := &per[id]
				pairs++
				for _, m := range []struct {
					sig   string
					ptr   any
					bySig map[string]any
					byPtr map[any]string
				}{{cutSig, any(got[i].RR), sh.cut, sh.rr}, {pieceSig, any(got[i].Cost), sh.piece, sh.cost}} {
					if p, ok := m.bySig[m.sig]; ok && p != m.ptr {
						t.Fatalf("%s candidate %d: equal decisions %q got distinct views", name, id, m.sig)
					}
					if s, ok := m.byPtr[m.ptr]; ok && s != m.sig {
						t.Fatalf("%s candidate %d: decisions %q and %q share one view", name, id, s, m.sig)
					}
					m.bySig[m.sig], m.byPtr[m.ptr] = m.ptr, m.sig
				}
				if got[i].Cost != set.cands[id].Cost {
					restricted++
				}
			}
			for n := 0; n < 3; n++ {
				x := geometry.NewVector(len(lo))
				for d := range x {
					x[d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
				}
				if !reflect.DeepEqual(selection.Evaluate(got, x), selection.Evaluate(want, x)) {
					t.Fatalf("%s leaf %d: Evaluate at %v differs", name, leaf, x)
				}
				for p := range policyNames {
					if a, b := renderPolicy(got, x, p), renderPolicy(want, x, p); a != b {
						t.Fatalf("%s leaf %d %s at %v: shared %s, reference %s", name, leaf, policyNames[p], x, a, b)
					}
				}
			}
		})
		unique := 0
		for id, sh := range per {
			for p := range sh.cost {
				if p != any(set.cands[id].Cost) {
					unique++
				}
			}
		}
		if ix.Leaves() > 1 && restricted > 0 && unique >= restricted {
			t.Errorf("%s: %d restricted cost views for %d leaf candidates — nothing shared", name, unique, restricted)
		}
	}
}
