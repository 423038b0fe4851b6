package index

import (
	"encoding/binary"
	"math"
	"reflect"

	"mpq/internal/geometry"
	"mpq/internal/pwl"
	"mpq/internal/region"
	"mpq/internal/selection"
)

// LeafCandidates materializes, for every leaf id, the candidate subset
// to run the selection policies on — the views of LeafViews, without
// their byte estimate.
func (ix *Index) LeafCandidates(cands []selection.Candidate) [][]selection.Candidate {
	views, _ := ix.LeafViews(cands)
	return views
}

// LeafViews materializes, for every leaf id, the candidate subset to
// run the selection policies on: the leaf's candidates with their cost
// functions restricted to the pieces that may contain a point of the
// leaf cell (pwl.Restrict — dropped pieces are provably outside the
// cell beyond the evaluation tolerance, and the view falls back to the
// full scan when no kept piece contains the point) and their relevance
// regions restricted to the cutouts that can decide a containment test
// in the cell, each trimmed to its undecided constraints. Policy
// results through these subsets are byte-identical to the full linear
// scan. The returned slice is indexed by leaf id (non-leaf slots are
// nil).
//
// A candidate's view of a cell is fixed by its decision there: which
// cutouts stay, which of their constraints are still undecided, and
// which pieces stay per metric. Adjacent cells almost always decide
// alike, so equal decisions share one trimmed polytope, one restricted
// function and one restricted candidate (pointer-equal RR and Cost);
// the sharing memo lives only for the call. The decisions come from
// one descent of the tree that carries every candidate's undecided
// cutouts, constraints and pieces down and narrows them cell by cell
// (see cell for why narrowing is exact).
//
// bytes estimates the memory the views hold beyond cands themselves:
// the unique restricted objects plus the per-leaf subset slices. The
// serving layer charges it to the plan set's cache footprint.
func (ix *Index) LeafViews(cands []selection.Candidate) (views [][]selection.Candidate, bytes int64) {
	vb := &viewBuilder{
		ix:        ix,
		cands:     cands,
		out:       make([][]selection.Candidate, len(ix.nodes)),
		unions:    make([][]int32, len(ix.nodes)),
		states:    make([]viewState, ix.maxDepth+1),
		regions:   make(map[string]*region.Region),
		cutouts:   make(map[string]*geometry.Polytope),
		costs:     make(map[string]*pwl.Multi),
		functions: make(map[string]*pwl.Function),
	}
	vb.bytes = int64(len(vb.out)) * sliceBytes
	vb.union(0)
	// The root's parent state is the undecided everything: all cutouts
	// with all constraints, all pieces.
	var full viewState
	full.off = append(full.off, 0)
	for _, id := range vb.unions[0] {
		c := cands[id]
		if c.RR == nil {
			full.seg = append(full.seg, 0)
		} else {
			cutouts := c.RR.Cutouts()
			full.seg = append(full.seg, int32(len(cutouts)))
			for j, cut := range cutouts {
				full.seg = append(full.seg, int32(j), int32(cut.NumConstraints()))
				full.seg = appendRange(full.seg, cut.NumConstraints())
			}
		}
		for k := 0; k < c.Cost.NumMetrics(); k++ {
			n := c.Cost.Component(k).NumPieces()
			full.seg = append(full.seg, int32(n))
			full.seg = appendRange(full.seg, n)
		}
		full.off = append(full.off, int32(len(full.seg)))
	}
	vb.walk(0, 0, ix.lo.Clone(), ix.hi.Clone(), &full, vb.unions[0])
	return vb.out, vb.bytes
}

// Estimated sizes of the objects a view holds (64-bit platforms;
// allocator size-class rounding is ignored).
var (
	candidateBytes = int64(reflect.TypeFor[selection.Candidate]().Size())
	polytopeBytes  = int64(reflect.TypeFor[geometry.Polytope]().Size())
	halfspaceBytes = int64(reflect.TypeFor[geometry.Halfspace]().Size())
	regionBytes    = int64(reflect.TypeFor[region.Region]().Size())
	functionBytes  = int64(reflect.TypeFor[pwl.Function]().Size())
	pieceBytes     = int64(reflect.TypeFor[pwl.Piece]().Size())
	multiBytes     = int64(reflect.TypeFor[pwl.Multi]().Size())
	pointerBytes   = int64(reflect.TypeFor[*pwl.Function]().Size())
	sliceBytes     = int64(reflect.TypeFor[[]selection.Candidate]().Size())
)

// viewBuilder is the state of one LeafViews call.
type viewBuilder struct {
	ix    *Index
	cands []selection.Candidate
	out   [][]selection.Candidate
	bytes int64
	// unions[i] lists, ascending, the candidate ids of the leaves below
	// node i — the candidates whose decisions the descent carries there.
	unions [][]int32
	// states[d] is the decision state of the cell being visited at
	// depth d (reused across siblings).
	states []viewState
	// The sharing memo, keyed by candidate id plus the decision's index
	// lists (see keyOf).
	regions   map[string]*region.Region
	cutouts   map[string]*geometry.Polytope
	costs     map[string]*pwl.Multi
	functions map[string]*pwl.Function
	// Scratch.
	am    geometry.Vector
	key   []byte
	hs    []geometry.Halfspace
	keep  []int
	comps []*pwl.Function
}

// viewState is the narrowed decision state of one cell. The i-th
// candidate of the cell's union owns the segment seg[off[i]:off[i+1]]:
//
//	nCuts, {j, nH, h_1 … h_nH} × nCuts, {nP, p_1 … p_nP} × metrics
//
// — the cutouts j that can still decide a containment test, each with
// the indices h of its undecided constraints, then per metric the
// indices p of the pieces not excluded. Every list ascends.
type viewState struct {
	seg []int32
	off []int32
}

// appendRange appends 0, 1, …, n-1.
func appendRange(dst []int32, n int) []int32 {
	for i := 0; i < n; i++ {
		dst = append(dst, int32(i))
	}
	return dst
}

// union computes unions[i] for the subtree rooted at i: a leaf's own
// candidates, an internal node's merge of its children's.
func (vb *viewBuilder) union(i int32) []int32 {
	n := &vb.ix.nodes[i]
	if n.right == 0 {
		vb.unions[i] = n.cands
		return n.cands
	}
	l, r := vb.union(n.left), vb.union(n.right)
	u := make([]int32, 0, max(len(l), len(r)))
	for len(l) > 0 && len(r) > 0 {
		switch {
		case l[0] < r[0]:
			u, l = append(u, l[0]), l[1:]
		case r[0] < l[0]:
			u, r = append(u, r[0]), r[1:]
		default:
			u, l, r = append(u, l[0]), l[1:], r[1:]
		}
	}
	u = append(append(u, l...), r...)
	vb.unions[i] = u
	return u
}

// walk narrows the parent's decisions to node i's cell [lo,hi] and
// descends; at a leaf it materializes the views. lo/hi are scratch,
// mutated in place and restored.
func (vb *viewBuilder) walk(i int32, depth int, lo, hi geometry.Vector, parent *viewState, parentIDs []int32) {
	st := &vb.states[depth]
	ids := vb.unions[i]
	vb.narrow(st, parent, parentIDs, ids, lo, hi)
	n := &vb.ix.nodes[i]
	if n.right == 0 {
		vb.leaf(i, st)
		return
	}
	d := n.dim
	save := hi[d]
	hi[d] = n.split
	vb.walk(n.left, depth+1, lo, hi, st, ids)
	hi[d] = save
	save = lo[d]
	lo[d] = n.split
	vb.walk(n.right, depth+1, lo, hi, st, ids)
	lo[d] = save
}

// narrow writes into dst the decisions of the candidates ids (a
// subsequence of srcIDs) in the cell [lo,hi], testing only what src —
// the enclosing cell's state — left undecided.
func (vb *viewBuilder) narrow(dst, src *viewState, srcIDs, ids []int32, lo, hi geometry.Vector) {
	dst.seg = dst.seg[:0]
	dst.off = append(dst.off[:0], 0)
	am := absMax(vb.am, lo, hi)
	vb.am = am
	si := 0
	for _, id := range ids {
		for srcIDs[si] != id {
			si++
		}
		seg := src.seg[src.off[si]:src.off[si+1]]
		c := vb.cands[id]
		pos := 1
		nCuts := dst.mark()
		if seg[0] > 0 {
			cuts := c.RR.Cutouts()
		cutouts:
			for q := int32(0); q < seg[0]; q++ {
				j, n := seg[pos], int(seg[pos+1])
				hs := seg[pos+2 : pos+2+n]
				pos += 2 + n
				cons := cuts[j].Constraints()
				mark := len(dst.seg)
				dst.seg = append(dst.seg, j, 0)
				for _, h := range hs {
					switch classify(cons[h], lo, hi, am) {
					case violated:
						// No cell point is strictly inside the cutout:
						// it cannot decide any containment test here.
						dst.seg = dst.seg[:mark]
						continue cutouts
					case undecided:
						dst.seg = append(dst.seg, h)
					}
				}
				dst.seg[mark+1] = int32(len(dst.seg) - mark - 2)
				dst.seg[nCuts]++
			}
		}
		for k := 0; k < c.Cost.NumMetrics(); k++ {
			n := int(seg[pos])
			ps := seg[pos+1 : pos+1+n]
			pos += 1 + n
			pieces := c.Cost.Component(k).Pieces()
			nP := dst.mark()
			for _, p := range ps {
				if !pieceExcluded(&pieces[p], lo, hi, am) {
					dst.seg = append(dst.seg, p)
				}
			}
			dst.seg[nP] = int32(len(dst.seg) - nP - 1)
		}
		dst.off = append(dst.off, int32(len(dst.seg)))
	}
}

// mark appends a zero count slot and returns its position.
func (s *viewState) mark() int {
	s.seg = append(s.seg, 0)
	return len(s.seg) - 1
}

// Outcomes of classify.
const (
	undecided = iota
	satisfied // strictly satisfied everywhere in the cell
	violated  // violated everywhere in the cell beyond the strict margin
)

// classify decides a cutout constraint over the cell box. A violated
// constraint means no cell point is strictly inside the cutout, so the
// cutout cannot change any Contains outcome there and is dropped. A
// satisfied constraint can never flip a cell point's containment test
// to false and is dropped from the trimmed cutout. A cutout with every
// constraint satisfied contains the cell, so the build excluded the
// candidate — except at the root, where it keeps a constraint-free
// cutout, exactly as a full scan would.
func classify(h geometry.Halfspace, lo, hi, am geometry.Vector) int {
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
		scale += math.Abs(w) * am[i]
	}
	margin := cellStrictEps + cellRelEps*scale
	if mn-h.B > margin {
		return violated
	}
	if mx <= h.B-margin {
		return satisfied
	}
	return undecided
}

// pieceExcluded reports whether the piece's region provably excludes
// the whole cell: some normalized constraint is violated by more than
// pwl's evaluation tolerance at every point of the box (the box
// minimum of the normalized W·x stays above B by the strict margin).
// am is the box's absMax.
func pieceExcluded(p *pwl.Piece, lo, hi, am geometry.Vector) bool {
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
			scale += math.Abs(w) * am[i]
		}
		if mn-h.B*s > cellStrictEps+cellRelEps*scale {
			return true
		}
	}
	return false
}

// leaf materializes leaf i's views from its decision state.
func (vb *viewBuilder) leaf(i int32, st *viewState) {
	ids := vb.unions[i]
	sub := make([]selection.Candidate, len(ids))
	for q, id := range ids {
		seg := st.seg[st.off[q]:st.off[q+1]]
		// The cutout decisions end where the piece lists begin.
		pos := 1
		for n := int32(0); n < seg[0]; n++ {
			pos += 2 + int(seg[pos+1])
		}
		c := vb.cands[id]
		if c.RR != nil {
			c.RR = vb.region(id, c.RR, seg[:pos])
		}
		c.Cost = vb.cost(id, c.Cost, seg[pos:])
		sub[q] = c
	}
	vb.out[i] = sub
	vb.bytes += int64(len(sub)) * candidateBytes
}

// keyOf encodes a memo key — the prefix (candidate id, and the cutout
// or metric index) followed by a decision's index list — in vb.key.
// Map lookups with string(key) do not allocate; only a miss stores a
// copy.
func (vb *viewBuilder) keyOf(list []int32, prefix ...int32) []byte {
	k := vb.key[:0]
	for _, v := range prefix {
		k = binary.LittleEndian.AppendUint32(k, uint32(v))
	}
	for _, v := range list {
		k = binary.LittleEndian.AppendUint32(k, uint32(v))
	}
	vb.key = k
	return k
}

// region returns the containment view of rr for the cutout decisions
// cuts (nCuts, {j, nH, h…}…), shared by every cell deciding alike.
func (vb *viewBuilder) region(id int32, rr *region.Region, cuts []int32) *region.Region {
	if cuts[0] == 0 {
		// No cutout can decide containment in this cell, and every
		// served point is inside the space: the candidate is always
		// relevant here — selection's nil fast path skips the test
		// entirely.
		return nil
	}
	if v, ok := vb.regions[string(vb.keyOf(cuts, id))]; ok {
		return v
	}
	key := string(vb.key)
	cutouts := rr.Cutouts()
	kept := make([]*geometry.Polytope, 0, cuts[0])
	for pos := 1; pos < len(cuts); {
		j, n := cuts[pos], int(cuts[pos+1])
		kept = append(kept, vb.cutout(id, j, cutouts[j], cuts[pos+2:pos+2+n]))
		pos += 2 + n
	}
	// The view drops the per-candidate space test (served points are
	// validated in-space before selection) and scans only the kept
	// cutouts with their undecided constraints.
	v := rr.ContainmentView(kept)
	vb.regions[key] = v
	vb.bytes += regionBytes + int64(len(kept))*pointerBytes
	return v
}

// cutout returns cutout j of candidate id trimmed to the constraints
// hs: the cutout itself when none was dropped.
func (vb *viewBuilder) cutout(id, j int32, cut *geometry.Polytope, hs []int32) *geometry.Polytope {
	cons := cut.Constraints()
	if len(hs) == len(cons) {
		return cut
	}
	if p, ok := vb.cutouts[string(vb.keyOf(hs, id, j))]; ok {
		return p
	}
	key := string(vb.key)
	kept := vb.hs[:0]
	for _, h := range hs {
		kept = append(kept, cons[h])
	}
	vb.hs = kept
	p := geometry.NewPolytope(cut.Dim(), kept...)
	vb.cutouts[key] = p
	vb.bytes += polytopeBytes + int64(len(kept))*halfspaceBytes
	return p
}

// cost returns m restricted to the piece decisions pieces ({nP, p…} per
// metric): m itself when no metric drops a piece.
func (vb *viewBuilder) cost(id int32, m *pwl.Multi, pieces []int32) *pwl.Multi {
	changed := false
	for k, pos := 0, 0; k < m.NumMetrics(); k++ {
		n := int(pieces[pos])
		if n < m.Component(k).NumPieces() {
			changed = true
			break
		}
		pos += 1 + n
	}
	if !changed {
		return m
	}
	if v, ok := vb.costs[string(vb.keyOf(pieces, id))]; ok {
		return v
	}
	key := string(vb.key)
	comps := vb.comps[:0]
	for k, pos := 0, 0; k < m.NumMetrics(); k++ {
		n := int(pieces[pos])
		comps = append(comps, vb.function(id, int32(k), m.Component(k), pieces[pos+1:pos+1+n]))
		pos += 1 + n
	}
	vb.comps = comps
	v := pwl.NewMulti(comps...)
	vb.costs[key] = v
	vb.bytes += multiBytes + int64(len(comps))*pointerBytes
	return v
}

// function returns metric k of candidate id restricted to the pieces
// ps: f itself when none was dropped.
func (vb *viewBuilder) function(id, k int32, f *pwl.Function, ps []int32) *pwl.Function {
	if len(ps) == f.NumPieces() {
		return f
	}
	if v, ok := vb.functions[string(vb.keyOf(ps, id, k))]; ok {
		return v
	}
	key := string(vb.key)
	keep := vb.keep[:0]
	for _, p := range ps {
		keep = append(keep, int(p))
	}
	vb.keep = keep
	v := f.Restrict(keep)
	vb.functions[key] = v
	vb.bytes += functionBytes + int64(len(keep))*pieceBytes
	return v
}
