// Package index implements a point-location pick index over a prepared
// Pareto plan set's parameter space: an adaptive binary-split (kd-tree
// style) decomposition of the parameter box whose leaves store the ids
// of the candidates whose relevance regions intersect the leaf cell.
// Run-time plan selection then scans only a leaf's candidate subset
// instead of every candidate — the precomputed decision structure the
// serving layer uses to turn high pick rates over one plan set into
// cell lookups (in the spirit of plan diagrams, which discretize
// parametric optimizer output the same way).
//
// The index is *conservative*: a candidate is dropped from a cell only
// when one of its relevance-region cutouts provably contains the whole
// cell beyond the containment tolerance of the selection policies
// (selection.ContainsEps), and a cost piece is dropped from a leaf's
// evaluation view only when one of its normalized constraints is
// violated beyond pwl's evaluation tolerance everywhere in the cell
// (with the full piece scan as the in-view fallback). Every selection
// policy therefore returns byte-identical results through the index and
// through the full linear scan; internal/index's property test and the
// serving layer's stress tests assert this end to end.
//
// Builds are deterministic for any Options.Workers: the tree shape
// depends only on the candidate set and the build options, never on
// goroutine scheduling, so persisted indexes (the store's v3 "index"
// stanza) are byte-stable across processes and pool sizes.
//
// Both the build and the leaf views (LeafViews) descend the tree once
// and narrow as they go: what a cell has decided — a cutout disjoint
// from it, a constraint satisfied or violated everywhere in it, a piece
// excluded from it — stays decided in every cell below (see cell), so
// each level tests only what its parent left open. The views of cells
// that decide alike are shared, not copied.
package index

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"mpq/internal/geometry"
	"mpq/internal/selection"
)

// Tolerances of the conservative cell tests. Candidate exclusion must
// be strict with respect to selection.ContainsEps (a dropped candidate
// must fail the policy's containment test at *every* point routed to
// the cell), piece exclusion with respect to pwl's 1e-9 evaluation
// tolerance; both margins are three orders of magnitude wider, plus a
// relative term absorbing the closed-form box arithmetic error.
const (
	cellStrictEps = 1e-6
	cellRelEps    = geometry.CompareEps
	// boxPadFactor pads the root bounding box so that every point the
	// serving layer accepts (inside the parameter space within 1e-9,
	// with LP-tolerance bounding-box edges) is strictly inside the
	// padded box.
	boxPadFactor = 1e-6
)

// Options configures an index build. The zero value selects the
// defaults.
type Options struct {
	// LeafTarget stops splitting once a cell holds at most this many
	// *prunable* candidates (candidates with relevance-region cutouts;
	// always-relevant candidates appear in every leaf and do not count).
	// Zero selects 4.
	LeafTarget int
	// MaxDepth bounds the tree depth. Zero selects 16.
	MaxDepth int
	// MaxLeaves bounds the leaf count; the budget is divided evenly
	// between subtrees at every split, so the bound is deterministic and
	// independent of build parallelism. Zero selects 4096.
	MaxLeaves int
	// Workers is the build parallelism: subtrees near the root are built
	// by concurrent goroutines. The resulting tree is identical for any
	// value. Zero selects 1.
	Workers int
}

// withDefaults normalizes zero fields.
func (o Options) withDefaults() Options {
	if o.LeafTarget <= 0 {
		o.LeafTarget = 4
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 16
	}
	if o.MaxLeaves <= 0 {
		o.MaxLeaves = 4096
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// Index is a built point-location index. It is immutable and safe for
// concurrent use.
type Index struct {
	dim    int
	lo, hi geometry.Vector // padded bounding box of the parameter space
	opts   Options         // build options (normalized; Workers not persisted)
	nodes  []node          // preorder, nodes[0] is the root

	leaves        int
	leafCandTotal int64
	maxDepth      int
	buildTime     time.Duration
}

// node is one tree node. Internal nodes route by x[dim] < split; leaves
// hold the candidate ids (ascending plan order). right == 0 marks a
// leaf: in preorder the root is never a child, so no internal node can
// reference index 0.
type node struct {
	dim   int32
	left  int32
	right int32
	split float64
	cands []int32
}

// Build constructs the index for a candidate set over the given
// parameter space. The solver is used only to compute the space's
// bounding box; the build itself is closed-form box arithmetic,
// parallelized across opts.Workers goroutines with a deterministic
// result.
func Build(s *geometry.Solver, space *geometry.Polytope, cands []selection.Candidate, opts Options) (*Index, error) {
	start := time.Now() //mpq:wallclock build-time stat (Stats.Index.BuildTime); never reaches the tree shape
	opts = opts.withDefaults()
	dim := space.Dim()
	lo, hi, ok := s.BoundingBox(space)
	if !ok {
		return nil, fmt.Errorf("index: parameter space has no bounded box")
	}
	// Pad so every servable point (inside the space within the pick
	// tolerance) is strictly interior to the root box.
	for i := 0; i < dim; i++ {
		pad := boxPadFactor * (1 + math.Abs(hi[i]-lo[i]))
		lo[i] -= pad
		hi[i] += pad
	}
	root := cell{ids: make([]int32, len(cands)), off: make([]int32, 1, len(cands)+1)}
	for i, c := range cands {
		root.ids[i] = int32(i)
		if prunableCandidate(c) {
			for _, cut := range c.RR.Cutouts() {
				if !boxDisjoint(lo, hi, cut) {
					root.cuts = append(root.cuts, cut)
				}
			}
		}
		root.off = append(root.off, int32(len(root.cuts)))
	}
	b := &builder{cands: cands, opts: opts}
	// Spawn goroutines only near the root: ~log2(Workers)+1 levels keep
	// every worker busy without flooding the scheduler.
	for d := 1; d < opts.Workers; d *= 2 {
		b.parDepth++
	}
	broot := b.build(lo, hi, root, 0, opts.MaxLeaves, new(scratch))
	ix := &Index{dim: dim, lo: lo, hi: hi, opts: opts}
	ix.flatten(broot, 0)
	ix.buildTime = time.Since(start) //mpq:wallclock build-time stat; never reaches the tree shape
	return ix, nil
}

// builder carries the immutable build inputs.
type builder struct {
	cands    []selection.Candidate
	opts     Options
	parDepth int
}

// cell is the build state of one tree cell: the ids of the candidates
// kept in it (ascending) and, for the i-th of them, the cutouts not
// provably disjoint from the cell, cuts[off[i]:off[i+1]].
//
// Narrowing is exact, not a heuristic. A child cell lies inside its
// parent (the split is strictly between the parent's bounds), so every
// coordinate of the child's box is a coordinate of the parent's or a
// value between two of them. The closed-form box minimum of W·x over
// the child is therefore at least the parent's, term by term and — as
// IEEE rounding is monotone — after summation too; the box maximum is
// at most the parent's; and the scale term of every margin (|W|·max|x|)
// only shrinks. Hence, as a cell shrinks: a cutout disjoint from it
// stays disjoint, a cutout or piece with a constraint violated
// everywhere stays so, and a constraint satisfied everywhere stays
// satisfied. Dropping what the parent already decided changes no test
// in any descendant — the tree and the leaf views are exactly those of
// a full scan at every cell (TestBuildMatchesReferenceTree,
// TestSharedLeafViewsMatchUnshared).
type cell struct {
	ids  []int32
	off  []int32
	cuts []*geometry.Polytope
}

// bnode is the pointer-linked build-time tree, flattened to the
// preorder node array once the build completes.
type bnode struct {
	dim         int
	split       float64
	left, right *bnode
	cands       []int32
}

// build recursively decomposes the closed cell [lo,hi]. budget is the
// maximum number of leaves this subtree may produce (split evenly
// between children, so the bound is schedule-independent). sc is the
// calling goroutine's scratch; c and the box may live in it (at depth),
// so children are filtered and built one after the other.
func (b *builder) build(lo, hi geometry.Vector, c cell, depth, budget int, sc *scratch) *bnode {
	prunable := 0
	for _, id := range c.ids {
		if prunableCandidate(b.cands[id]) {
			prunable++
		}
	}
	// Splitting can still shed a candidate only while some kept
	// candidate has a cutout overlapping the cell (a disjoint cutout can
	// never contain a descendant cell, and one containing the whole cell
	// would already have excluded the candidate). Purely a termination
	// heuristic — it cannot affect soundness, only tree size.
	if prunable <= b.opts.LeafTarget || depth >= b.opts.MaxDepth ||
		budget < 2 || len(c.cuts) == 0 {
		return &bnode{cands: slices.Clone(c.ids)}
	}
	// Split the widest dimension at its midpoint (lowest dimension on
	// ties — deterministic).
	d := widest(lo, hi)
	split := (lo[d] + hi[d]) / 2
	if !(split > lo[d] && split < hi[d]) {
		// Degenerate cell (zero width or non-finite bounds): stop.
		return &bnode{cands: slices.Clone(c.ids)}
	}
	lb := (budget + 1) / 2
	n := &bnode{dim: d, split: split}
	if depth < b.parDepth {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.left = b.child(lo, hi, c, depth, d, split, lb, true, new(scratch))
		}()
		n.right = b.child(lo, hi, c, depth, d, split, budget-lb, false, sc)
		wg.Wait()
	} else {
		n.left = b.child(lo, hi, c, depth, d, split, lb, true, sc)
		n.right = b.child(lo, hi, c, depth, d, split, budget-lb, false, sc)
	}
	return n
}

// child filters and builds the left or right half of the cell [lo,hi]
// split at split in dimension d, its box held at depth+1 in sc.
func (b *builder) child(lo, hi geometry.Vector, c cell, depth, d int, split float64, budget int, left bool, sc *scratch) *bnode {
	if left {
		hi = sc.box(depth+1, hi)
		hi[d] = split
	} else {
		lo = sc.box(depth+1, lo)
		lo[d] = split
	}
	return b.build(lo, hi, b.filter(lo, hi, c, sc, depth+1), depth+1, budget, sc)
}

// widest returns the widest dimension of the box, the lowest on ties.
func widest(lo, hi geometry.Vector) int {
	d := 0
	for i := 1; i < len(lo); i++ {
		if hi[i]-lo[i] > hi[d]-lo[d] {
			d = i
		}
	}
	return d
}

// filter returns the child cell [lo,hi] of parent, at depth in sc: the parent's
// candidates whose relevance region may intersect the child, in order,
// each with its cutouts narrowed to those overlapping the child. A
// candidate is dropped when its cutouts strictly cover the whole closed
// child — then every point routed there fails the policies'
// containment test and the candidate cannot influence any pick. A
// single containing cutout decides immediately; otherwise the child is
// subdivided up to coverProbeDepth times and every sub-box must end up
// strictly inside some cutout (union coverage).
func (b *builder) filter(lo, hi geometry.Vector, parent cell, sc *scratch, depth int) cell {
	out := &sc.level(depth).cell
	out.ids = out.ids[:0]
	out.off = append(out.off[:0], 0)
	out.cuts = out.cuts[:0]
	am := absMax(sc.filterAM, lo, hi)
	sc.filterAM = am
	for i, id := range parent.ids {
		mark := len(out.cuts)
		excluded := false
		for _, cut := range parent.cuts[parent.off[i]:parent.off[i+1]] {
			if boxStrictlyInside(lo, hi, am, cut) {
				excluded = true
				break
			}
			if !boxDisjoint(lo, hi, cut) {
				out.cuts = append(out.cuts, cut)
			}
		}
		if excluded || sc.halvesCovered(out.cuts[mark:], lo, hi, coverProbeDepth) {
			out.cuts = out.cuts[:mark]
			continue
		}
		out.ids = append(out.ids, id)
		out.off = append(out.off, int32(len(out.cuts)))
	}
	return *out
}

// boxDisjoint reports whether the cutout is provably disjoint from the
// box: some constraint's box minimum already exceeds its bound.
func boxDisjoint(lo, hi geometry.Vector, c *geometry.Polytope) bool {
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

// coverProbeDepth bounds the recursive union-coverage refinement of
// filter: a cell is also excluded when, after up to this many binary
// subdivisions, every sub-box is strictly inside some single cutout —
// catching the common case of a cell covered by the union of several
// dominance cutouts, none of which contains it alone.
const coverProbeDepth = 4

// prunableCandidate reports whether the candidate can ever be excluded
// from a cell: it must carry a relevance region with cutouts (a nil
// region means always relevant; a cutout-free region restricts only to
// the parameter space, which every served point is inside).
func prunableCandidate(c selection.Candidate) bool {
	return c.RR != nil && c.RR.NumCutouts() > 0
}

// scratch is one build goroutine's reusable state, so a warm build
// allocates little beyond the tree itself. levels[d] holds the cell at
// tree depth d and its box coordinate vector; rest, am, lo and hi are
// the union probe's per-probe-depth overlapping cutouts, absMax factors
// and half-box bounds; filterAM is filter's absMax slot.
type scratch struct {
	levels     []level
	rest       [coverProbeDepth + 1][]*geometry.Polytope
	am, lo, hi [coverProbeDepth + 1]geometry.Vector
	filterAM   geometry.Vector
}

// level is the scratch of one tree depth: the cell being built there
// and the box vector that differs from its parent's.
type level struct {
	cell cell
	box  geometry.Vector
}

// level returns depth's slot, growing the slots as needed.
func (sc *scratch) level(depth int) *level {
	for len(sc.levels) <= depth {
		sc.levels = append(sc.levels, level{})
	}
	return &sc.levels[depth]
}

// box returns depth's box vector holding a copy of src.
func (sc *scratch) box(depth int, src geometry.Vector) geometry.Vector {
	l := sc.level(depth)
	l.box = append(l.box[:0], src...)
	return l.box
}

// covers reports whether the cutouts strictly cover the whole closed
// box: one contains it strictly, or (with depth left) both halves of
// its widest dimension are covered by the cutouts overlapping it.
func (sc *scratch) covers(cutouts []*geometry.Polytope, lo, hi geometry.Vector, depth int) bool {
	am := absMax(sc.am[depth], lo, hi)
	sc.am[depth] = am
	rest := sc.rest[depth][:0]
	for _, c := range cutouts {
		if boxStrictlyInside(lo, hi, am, c) {
			return true
		}
		if !boxDisjoint(lo, hi, c) {
			rest = append(rest, c)
		}
	}
	sc.rest[depth] = rest
	return sc.halvesCovered(rest, lo, hi, depth)
}

// halvesCovered reports whether both halves of the box are covered by
// rest, the cutouts overlapping it, none of which contains it alone.
// One overlapping cutout cannot cover a box it does not contain.
func (sc *scratch) halvesCovered(rest []*geometry.Polytope, lo, hi geometry.Vector, depth int) bool {
	if depth == 0 || len(rest) < 2 {
		return false
	}
	d := widest(lo, hi)
	mid := (lo[d] + hi[d]) / 2
	if !(mid > lo[d] && mid < hi[d]) {
		return false
	}
	// The half boxes of this depth live in the scratch; deeper probes
	// use their own slots, so neither is clobbered before it is read.
	leftHi := append(sc.hi[depth][:0], hi...)
	leftHi[d] = mid
	sc.hi[depth] = leftHi
	if !sc.covers(rest, lo, leftHi, depth-1) {
		return false
	}
	rightLo := append(sc.lo[depth][:0], lo...)
	rightLo[d] = mid
	sc.lo[depth] = rightLo
	return sc.covers(rest, rightLo, hi, depth-1)
}

// boxStrictlyInside reports whether every point of the box satisfies
// every constraint of c with margin beyond selection.ContainsEps: the
// box maximum of each W·x (closed form over the box corners) must stay
// below B by the strict margin plus a relative term covering the
// summation error. am is the box's absMax.
func boxStrictlyInside(lo, hi, am geometry.Vector, c *geometry.Polytope) bool {
	for _, h := range c.Constraints() {
		m := 0.0
		scale := math.Abs(h.B)
		for i, w := range h.W {
			if w > 0 {
				m += w * hi[i]
			} else {
				m += w * lo[i]
			}
			scale += math.Abs(w) * am[i]
		}
		if m > h.B-cellStrictEps-cellRelEps*scale {
			return false
		}
	}
	return true
}

// absMax writes into dst, per dimension, max(|lo|, |hi|) over the box:
// the factor of every margin's scale term, computed once per box
// instead of once per constraint term.
func absMax(dst, lo, hi geometry.Vector) geometry.Vector {
	dst = dst[:0]
	for i := range lo {
		dst = append(dst, math.Max(math.Abs(lo[i]), math.Abs(hi[i])))
	}
	return dst
}

// flatten appends the subtree rooted at bn to ix.nodes in preorder and
// returns its node id, accumulating the leaf statistics.
func (ix *Index) flatten(bn *bnode, depth int) int32 {
	id := int32(len(ix.nodes))
	ix.nodes = append(ix.nodes, node{})
	if depth > ix.maxDepth {
		ix.maxDepth = depth
	}
	if bn.left == nil {
		ix.nodes[id] = node{cands: bn.cands}
		ix.leaves++
		ix.leafCandTotal += int64(len(bn.cands))
		return id
	}
	l := ix.flatten(bn.left, depth+1)
	r := ix.flatten(bn.right, depth+1)
	ix.nodes[id] = node{dim: int32(bn.dim), split: bn.split, left: l, right: r}
	return id
}

// Dim returns the parameter-space dimension.
func (ix *Index) Dim() int { return ix.dim }

// Leaves returns the leaf count.
func (ix *Index) Leaves() int { return ix.leaves }

// MaxDepth returns the deepest leaf's depth.
func (ix *Index) MaxDepth() int { return ix.maxDepth }

// AvgLeafCandidates returns the mean candidate-id count per leaf.
func (ix *Index) AvgLeafCandidates() float64 {
	if ix.leaves == 0 {
		return 0
	}
	return float64(ix.leafCandTotal) / float64(ix.leaves)
}

// LeafCandidateTotal returns the summed candidate-id count over all
// leaves.
func (ix *Index) LeafCandidateTotal() int64 { return ix.leafCandTotal }

// BuildTime returns the wall-clock build duration (zero for indexes
// reconstructed from a snapshot).
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// Locate routes x to its leaf and returns the leaf id and the ids of
// the candidates possibly relevant there. ok is false when x falls
// outside the index's padded parameter box — callers must then fall
// back to the full candidate scan.
func (ix *Index) Locate(x geometry.Vector) (leaf int32, ids []int32, ok bool) {
	if len(x) != ix.dim {
		return 0, nil, false
	}
	for i := 0; i < ix.dim; i++ {
		// Negated form so NaN coordinates fail the check and fall back
		// to the linear scan instead of descending to an arbitrary leaf.
		if !(x[i] >= ix.lo[i] && x[i] <= ix.hi[i]) {
			return 0, nil, false
		}
	}
	i := int32(0)
	for {
		n := &ix.nodes[i]
		if n.right == 0 {
			return i, n.cands, true
		}
		if x[n.dim] < n.split {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// NumNodes returns the total node count (for sizing per-leaf caches:
// leaf ids index into [0, NumNodes)).
func (ix *Index) NumNodes() int { return len(ix.nodes) }

// MemBytes estimates the resident memory of the index structure: the
// preorder node array, the per-leaf candidate id lists, and the padded
// box. The serving layer's memory-accounted cache charges each plan
// set its serialized document size plus this estimate plus the bytes
// of its leaf views (LeafViews), so eviction decisions track what an
// indexed entry actually holds live.
func (ix *Index) MemBytes() int64 {
	// One node: three int32s plus padding (16), one float64 (8), one
	// slice header (24) — 48 bytes on 64-bit platforms.
	const nodeBytes = 48
	return int64(len(ix.nodes))*nodeBytes +
		ix.leafCandTotal*4 + // candidate ids (int32)
		int64(2*ix.dim)*8 // lo/hi box vectors
}
