package core

import (
	"fmt"
	"math"

	"bayestree/internal/mbr"
)

// This file is the R* insertion of [16], the paper's "Iterativ"
// baseline, kept only as a loader's build: BuildRStar inserts a class's
// observations one at a time into an empty one-class tree, choosing
// subtrees by overlap enlargement above the leaves and resolving the
// first overflow per level by forced reinsertion. A tree that learns
// online inserts through MultiTree.Insert, which repairs the descent
// mirror along its path instead.
//
// The build starts empty and is undecayed, so every leaf is unweighted,
// every reinsertion finds a branch tall enough for its subtree, and the
// tree stays balanced.

// ReinsertFraction is the share of a node's capacity (MaxLeaf points or
// MaxFanout entries) that forced reinsertion takes out, the R*-tree's
// 30 %; it always takes at least one.
const ReinsertFraction = 0.3

// BuildRStar builds a one-class tree of the given label over points by
// R* insertion, in order. The points are copied.
func BuildRStar(cfg Config, label int, points [][]float64) (*MultiTree, error) {
	t, err := NewMultiTree(cfg, []int{label}, MultiOptions{})
	if err != nil {
		return nil, err
	}
	for i, x := range points {
		if err := t.insertRStar(x); err != nil {
			return nil, fmt.Errorf("core: observation %d: %w", i, err)
		}
	}
	return t, nil
}

// insertRStar adds a copy of x to a one-class tree by R* insertion.
func (t *MultiTree) insertRStar(x []float64) error {
	if err := checkPoint(x, t.cfg.Dim); err != nil {
		return err
	}
	t.size++
	t.counts[0]++
	t.npoints[0]++
	t.rstarInsertPoint(LabeledPoint{X: append([]float64(nil), x...), Label: t.labels[0]}, make(map[int]bool))
	t.publish()
	return nil
}

// rstarInsertPoint inserts p at leaf level; reinserted marks the levels,
// counted from the leaves, that have had their forced reinsertion in
// this insert.
func (t *MultiTree) rstarInsertPoint(p LabeledPoint, reinserted map[int]bool) {
	rect := mbr.Rect{Lo: p.X, Hi: p.X}
	path := []*MultiNode{t.root}
	n := t.root
	for !n.leaf {
		n = n.entries[t.rstarChoose(n, rect)].Child
		path = append(path, n)
	}
	n.points = append(n.points, p)
	t.rstarFix(path, reinserted)
}

// rstarInsertEntry reinserts a subtree entry whose child has the given
// height into a node of height childHeight+1.
func (t *MultiTree) rstarInsertEntry(e MultiEntry, childHeight int, reinserted map[int]bool) {
	path := []*MultiNode{t.root}
	n := t.root
	for height(n) > childHeight+1 {
		n = n.entries[t.rstarChoose(n, e.Rect)].Child
		path = append(path, n)
	}
	n.entries = append(n.entries, e)
	t.rstarFix(path, reinserted)
}

// height returns the number of levels below and including n of a
// balanced tree.
func height(n *MultiNode) int {
	h := 1
	for ; !n.leaf; n = n.entries[0].Child {
		h++
	}
	return h
}

// rstarChoose applies the R* subtree choice: minimal overlap
// enlargement when the children are leaves, minimal area enlargement
// otherwise; area breaks ties.
func (t *MultiTree) rstarChoose(n *MultiNode, r mbr.Rect) int {
	if !n.entries[0].Child.leaf {
		return t.chooseSubtree(n, r)
	}
	best := 0
	bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	for i := range n.entries {
		u := mbr.Union(n.entries[i].Rect, r)
		var overlap float64
		for j := range n.entries {
			if j != i {
				overlap += mbr.OverlapArea(u, n.entries[j].Rect) - mbr.OverlapArea(n.entries[i].Rect, n.entries[j].Rect)
			}
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

// rstarFix repairs the path bottom-up after an insertion: the first
// overflow per level is resolved by reinserting the entries or points
// farthest from the node's centre, any other by a split; the first level
// that does not overflow refreshes the summaries above it and ends the
// repair.
func (t *MultiTree) rstarFix(path []*MultiNode, reinserted map[int]bool) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if !((n.leaf && len(n.points) > t.cfg.MaxLeaf) || (!n.leaf && len(n.entries) > t.cfg.MaxFanout)) {
			t.refreshPath(path[:i+1], allClasses)
			return
		}
		if level := len(path) - 1 - i; i > 0 && !reinserted[level] {
			reinserted[level] = true
			if n.leaf {
				removed := t.pickReinsertPoints(n)
				t.refreshPath(path[:i+1], allClasses)
				for _, p := range removed {
					t.rstarInsertPoint(p, reinserted)
				}
			} else {
				removed := t.pickReinsertEntries(n)
				t.refreshPath(path[:i+1], allClasses)
				h := height(n) - 1
				for _, e := range removed {
					t.rstarInsertEntry(e, h, reinserted)
				}
			}
			return
		}
		t.splitAt(path, i)
	}
}

// pickReinsertPoints removes from leaf n the ReinsertFraction of MaxLeaf
// points farthest from its centroid and returns them, farthest first;
// the rest stay in order of decreasing distance.
func (t *MultiTree) pickReinsertPoints(n *MultiNode) []LabeledPoint {
	p := max(1, int(ReinsertFraction*float64(t.cfg.MaxLeaf)))
	sum := t.summarize(n)
	center := sum.Total.Mean()
	idx := sortedByDistDesc(len(n.points), func(i int) []float64 { return n.points[i].X }, center)
	removed := gather(n.points, idx[:p])
	n.points = gather(n.points, idx[p:])
	return removed
}

// pickReinsertEntries removes from inner node n the entries whose
// centres lie farthest from its rectangle's centre and returns them,
// farthest first, as pickReinsertPoints does.
func (t *MultiTree) pickReinsertEntries(n *MultiNode) []MultiEntry {
	p := max(1, int(ReinsertFraction*float64(t.cfg.MaxFanout)))
	center := t.summarize(n).Rect.Center()
	idx := sortedByDistDesc(len(n.entries), func(i int) []float64 { return n.entries[i].Rect.Center() }, center)
	removed := gather(n.entries, idx[:p])
	n.entries = gather(n.entries, idx[p:])
	return removed
}

// sortedByDistDesc returns indices 0..n-1 sorted by decreasing squared
// distance of at(i) from center, stably.
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
