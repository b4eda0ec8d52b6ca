package core

import (
	"math"
	"sync/atomic"

	"bayestree/internal/kernels"
	"bayestree/internal/mbr"
	"bayestree/internal/stats"
)

// Node is a Bayes tree node. Leaves store the observations themselves
// (d-dimensional kernel centres); inner nodes store entries, each
// summarising one child subtree per Definition 1. It is the shared node
// skeleton (node.go) over plain observations and Entry.
type Node = node[[]float64, Entry]

// Entry is a Bayes tree node entry (Definition 1): the minimum bounding
// rectangle of the subtree's objects, a pointer to the subtree and the
// cluster feature (n, LS, SS) from which the subtree's Gaussian N(μ, σ²)
// is derived via μ = LS/n, σ² = SS/n − (LS/n)².
type Entry struct {
	Rect mbr.Rect
	CF   stats.CF
	// Child is a *Node, spelled out: naming the alias here makes the
	// declaration cycle Entry → Node → Entry run through an alias, which
	// the type checker rejects depending on which it meets first.
	Child *node[[]float64, Entry]

	// frozen caches the precomputed form of CF's Gaussian. summarize
	// populates it eagerly whenever an entry is (re)built, so concurrent
	// queries only ever read it; it moves with the entry value and stays
	// valid as long as CF is unchanged (entries whose CF changes are
	// always rebuilt through summarize).
	frozen *stats.FrozenGaussian
}

// Gaussian returns the mixture component this entry contributes to a
// probability density query.
func (e *Entry) Gaussian() stats.Gaussian { return e.CF.Gaussian() }

// Frozen returns the cached precomputed Gaussian of the entry's cluster
// feature. Entries built by the tree always carry the cache; for
// hand-built entries it is derived on the fly (without storing, so
// concurrent readers stay race-free).
func (e *Entry) Frozen() *stats.FrozenGaussian {
	if e.frozen != nil {
		return e.frozen
	}
	f := stats.Freeze(&e.CF)
	return &f
}

func (e Entry) child() *Node               { return e.Child }
func (e Entry) mass() float64              { return e.CF.N }
func (e Entry) bounds() (lo, hi []float64) { return e.Rect.Lo, e.Rect.Hi }

// Tree is a Bayes tree over one data population (the classifier builds one
// per class, Section 2.2; MultiTree is the single-tree variant). It is not
// safe for concurrent mutation.
type Tree struct {
	cfg  Config
	root *Node
	size int
	// balanced is false for trees built by loaders that give up balance
	// (the paper's EMTopDown "may result in an unbalanced tree").
	balanced bool
	// queryState caches the per-tree constants every cursor needs (root
	// summary, total count, bandwidths). It is built on first use, shared
	// by concurrent read-only queries and invalidated by Insert,
	// AdvanceEpoch and DecaySweep.
	queryState atomic.Pointer[Cursorable]
	decayClock
}

// NewTree returns an empty Bayes tree.
func NewTree(cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tree{cfg: cfg, root: &Node{leaf: true}, balanced: true}, nil
}

// Config returns the tree's structural parameters.
func (t *Tree) Config() Config { return t.cfg }

// Len returns the number of stored observations.
func (t *Tree) Len() int { return t.size }

// Root returns the root node for read-only traversal.
func (t *Tree) Root() *Node { return t.root }

// Balanced reports whether the construction guaranteed equal leaf depths.
func (t *Tree) Balanced() bool { return t.balanced }

// RootEntry returns a synthetic entry summarising the entire tree — the
// starting frontier of every anytime query (the level-0 model with one
// Gaussian). It returns false for an empty tree.
func (t *Tree) RootEntry() (Entry, bool) {
	if t.size == 0 {
		return Entry{}, false
	}
	return t.summarize(t.root), true
}

// Bandwidth returns the per-dimension Silverman bandwidths for the leaf
// kernels, derived from the whole tree's cluster feature (the paper's
// data-independent bandwidth, Section 2.1).
func (t *Tree) Bandwidth() []float64 {
	e, ok := t.RootEntry()
	if !ok {
		return make([]float64, t.cfg.Dim)
	}
	return t.bandwidthFrom(e)
}

// bandwidthFrom derives the Silverman bandwidths from an already computed
// root summary, sparing a second tree walk.
func (t *Tree) bandwidthFrom(e Entry) []float64 {
	variance := e.CF.Variance()
	sigma := make([]float64, len(variance))
	for i, v := range variance {
		sigma[i] = math.Sqrt(v)
	}
	return stats.SilvermanBandwidth(sigma, t.size, t.cfg.Dim)
}

// cursorable returns the cached query-time constants, building them on
// first use after a mutation. A benign publication race (two goroutines
// building the same state) is possible but both build identical values
// from the same immutable tree.
func (t *Tree) cursorable() *Cursorable {
	if ct := t.queryState.Load(); ct != nil {
		return ct
	}
	root, ok := t.RootEntry()
	if !ok {
		return nil
	}
	ct := &Cursorable{
		root: root,
		kern: kernels.FreezeKernel(t.cfg.Kernel, t.bandwidthFrom(root)),
	}
	t.queryState.Store(ct)
	return ct
}

// summarize computes the entry describing node n (rect + CF) from its
// contents.
func (t *Tree) summarize(n *Node) Entry {
	rect := mbr.Empty(t.cfg.Dim)
	cf := stats.NewCF(t.cfg.Dim)
	if n.leaf {
		if n.weights == nil {
			for _, p := range n.points {
				rect.ExtendPoint(p)
				cf.Add(p)
			}
		} else {
			for i, p := range n.points {
				rect.ExtendPoint(p)
				cf.AddWeighted(p, n.weights[i])
			}
		}
	} else {
		for i := range n.entries {
			rect.Extend(n.entries[i].Rect)
			cf.Merge(n.entries[i].CF)
		}
	}
	f := stats.Freeze(&cf)
	return Entry{Rect: rect, CF: cf, Child: n, frozen: &f}
}

// Insert adds one observation using the R*-style incremental insertion —
// the paper's "Iterativ" baseline. The descent chooses subtrees by overlap
// and area enlargement of the MBRs; cluster features along the path absorb
// the new observation; overflows trigger forced reinsertion (once per
// level, if configured) and topological splits.
func (t *Tree) Insert(x []float64) error {
	if err := checkPoint(x, t.cfg.Dim); err != nil {
		return err
	}
	p := make([]float64, len(x))
	copy(p, x)
	reinserted := make(map[int]bool)
	t.insertPointW(p, t.insertWeight(), reinserted)
	t.size++
	t.queryState.Store(nil) // cached root summary and bandwidths are stale
	return nil
}

// height returns the number of levels below (and including) n.
func height(n *Node) int {
	if n.leaf {
		return 1
	}
	best := 0
	for i := range n.entries {
		if h := height(n.entries[i].Child); h > best {
			best = h
		}
	}
	return best + 1
}

// insertPointW inserts p at leaf level with the given weight (1 for
// undecayed trees; the amplified insert weight or a reinserted
// observation's decayed weight otherwise).
func (t *Tree) insertPointW(p []float64, w float64, reinserted map[int]bool) {
	path := t.choosePath(p)
	leaf := path[len(path)-1]
	leaf.appendPoint(p, w)
	t.fixOverflow(path, reinserted)
}

// insertSubtree reinserts a whole subtree entry at the level where nodes
// have the given height (forced reinsertion of inner entries). If the
// chosen branch is too short to host the subtree — possible in unbalanced
// trees — the subtree's observations are reinserted individually instead,
// so no data is ever lost.
func (t *Tree) insertSubtree(e Entry, childHeight int, reinserted map[int]bool) {
	rootHeight := height(t.root)
	if childHeight+1 > rootHeight {
		// Cannot happen during normal reinsertion; guard anyway.
		childHeight = rootHeight - 1
	}
	path := []*Node{t.root}
	n := t.root
	for !n.leaf && height(n) > childHeight+1 {
		idx := t.chooseSubtreeRect(n, e.Rect)
		n = n.entries[idx].Child
		path = append(path, n)
	}
	if n.leaf {
		// Branch too short for the subtree: dissolve it into points.
		points, ws := collectWeightedPoints(e.Child, nil, nil)
		for k, p := range points {
			t.insertPointW(p, ws[k], reinserted)
		}
		return
	}
	n.entries = append(n.entries, e)
	t.fixOverflow(path, reinserted)
}

// choosePath descends to the leaf best suited for p, returning the path
// from root to leaf.
func (t *Tree) choosePath(p []float64) []*Node {
	rect := mbr.Point(p)
	path := []*Node{t.root}
	n := t.root
	for !n.leaf {
		idx := t.chooseSubtreeRect(n, rect)
		n = n.entries[idx].Child
		path = append(path, n)
	}
	return path
}

// chooseSubtreeRect applies the R* subtree choice: minimal overlap
// enlargement when the children are leaves, minimal area enlargement
// otherwise.
func (t *Tree) chooseSubtreeRect(n *Node, r mbr.Rect) int {
	best := 0
	childrenAreLeaves := len(n.entries) > 0 && n.entries[0].Child.leaf
	if childrenAreLeaves {
		bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
		for i := range n.entries {
			u := mbr.Union(n.entries[i].Rect, r)
			var overlap float64
			for j := range n.entries {
				if j == i {
					continue
				}
				overlap += mbr.OverlapArea(u, n.entries[j].Rect) -
					mbr.OverlapArea(n.entries[i].Rect, n.entries[j].Rect)
			}
			area := n.entries[i].Rect.Area()
			enl := u.Area() - area
			if overlap < bestOverlap ||
				(overlap == bestOverlap && enl < bestEnl) ||
				(overlap == bestOverlap && enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = i, overlap, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for i := range n.entries {
		area := n.entries[i].Rect.Area()
		enl := mbr.UnionArea(n.entries[i].Rect, r) - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// fixOverflow repairs the path bottom-up after an insertion: refreshes the
// summaries of all ancestors and resolves overflows by forced reinsertion
// or splitting.
func (t *Tree) fixOverflow(path []*Node, reinserted map[int]bool) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		over := false
		if n.leaf {
			over = len(n.points) > t.cfg.MaxLeaf
		} else {
			over = len(n.entries) > t.cfg.MaxFanout
		}
		if !over {
			// Refresh every ancestor entry along this prefix and stop:
			// levels above gained no entries, so they cannot overflow, and
			// refreshPath already rebuilt (and refroze) their summaries.
			// Continuing would re-summarize the same entries once per
			// remaining level — O(depth²) wasted work per insert.
			t.refreshPath(path[:i+1])
			return
		}
		level := len(path) - 1 - i // 0 = leaf level counted from bottom of this path
		// Forced reinsertion of inner entries assumes one height per
		// level; in unbalanced trees (EMTopDown) only leaf-level point
		// reinsertion is well defined, so inner overflows there split.
		canReinsert := n.leaf || t.balanced
		if i > 0 && t.cfg.ForcedReinsert && canReinsert && !reinserted[level] {
			reinserted[level] = true
			if n.leaf {
				removed, removedW := t.pickReinsertPoints(n)
				t.refreshPath(path[:i+1])
				for k, p := range removed {
					w := 1.0
					if removedW != nil {
						w = removedW[k]
					}
					t.insertPointW(p, w, reinserted)
				}
			} else {
				removed := t.pickReinsertEntries(n)
				t.refreshPath(path[:i+1])
				h := height(n) - 1
				for _, e := range removed {
					t.insertSubtree(e, h, reinserted)
				}
			}
			return
		}
		left, right := t.splitNode(n)
		if i == 0 {
			newRoot := &Node{entries: []Entry{t.summarize(left), t.summarize(right)}}
			t.root = newRoot
			return
		}
		parent := path[i-1]
		for j := range parent.entries {
			if parent.entries[j].Child == n {
				parent.entries[j] = t.summarize(left)
				break
			}
		}
		parent.entries = append(parent.entries, t.summarize(right))
	}
}

// refreshPath recomputes the parent entries along the path (root first).
func (t *Tree) refreshPath(path []*Node) {
	for i := len(path) - 1; i >= 1; i-- {
		child := path[i]
		parent := path[i-1]
		for j := range parent.entries {
			if parent.entries[j].Child == child {
				parent.entries[j] = t.summarize(child)
				break
			}
		}
	}
}

// pickReinsertPoints removes the points farthest from the leaf
// centroid, returning them with their weights (nil weights when the
// leaf is unweighted).
func (t *Tree) pickReinsertPoints(n *Node) ([][]float64, []float64) {
	p := int(0.3 * float64(t.cfg.MaxLeaf))
	if t.cfg.ReinsertFraction > 0 {
		p = int(t.cfg.ReinsertFraction * float64(t.cfg.MaxLeaf))
	}
	if p < 1 {
		p = 1
	}
	sum := t.summarize(n)
	center := sum.CF.Mean()
	idx := sortedByDistDesc(len(n.points), func(i int) []float64 { return n.points[i] }, center)
	removed := make([][]float64, 0, p)
	keep := make([][]float64, 0, len(n.points)-p)
	var removedW, keepW []float64
	if n.weights != nil {
		removedW = make([]float64, 0, p)
		keepW = make([]float64, 0, len(n.points)-p)
	}
	for rank, i := range idx {
		if rank < p {
			removed = append(removed, n.points[i])
			if n.weights != nil {
				removedW = append(removedW, n.weights[i])
			}
		} else {
			keep = append(keep, n.points[i])
			if n.weights != nil {
				keepW = append(keepW, n.weights[i])
			}
		}
	}
	n.points = keep
	n.weights = keepW
	return removed, removedW
}

// pickReinsertEntries removes the entries whose centres are farthest from
// the node centre.
func (t *Tree) pickReinsertEntries(n *Node) []Entry {
	p := t.cfg.reinsertCount()
	center := t.summarize(n).Rect.Center()
	idx := sortedByDistDesc(len(n.entries), func(i int) []float64 { return n.entries[i].Rect.Center() }, center)
	removed := make([]Entry, 0, p)
	keep := make([]Entry, 0, len(n.entries)-p)
	for rank, i := range idx {
		if rank < p {
			removed = append(removed, n.entries[i])
		} else {
			keep = append(keep, n.entries[i])
		}
	}
	n.entries = keep
	return removed
}

// sortedByDistDesc returns indices 0..n-1 sorted by decreasing squared
// distance of at(i) from center.
func sortedByDistDesc(n int, at func(int) []float64, center []float64) []int {
	type de struct {
		d float64
		i int
	}
	ds := make([]de, n)
	for i := 0; i < n; i++ {
		x := at(i)
		var s float64
		for k := range center {
			dd := x[k] - center[k]
			s += dd * dd
		}
		ds[i] = de{d: s, i: i}
	}
	// Insertion sort: at most MaxLeaf+1 or MaxFanout+1 items.
	for a := 1; a < len(ds); a++ {
		for b := a; b > 0 && ds[b].d > ds[b-1].d; b-- {
			ds[b], ds[b-1] = ds[b-1], ds[b]
		}
	}
	out := make([]int, n)
	for i, e := range ds {
		out[i] = e.i
	}
	return out
}

// splitNode is the shared R* topological split over plain observations.
func (t *Tree) splitNode(n *Node) (left, right *Node) {
	return splitNode(n, &t.cfg, func(p []float64) []float64 { return p })
}
