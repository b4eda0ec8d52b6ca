package core

import (
	"math"
	"slices"

	"bayestree/internal/mbr"
)

// splitOrder performs the R* topological split on n items whose
// rectangles bounds(i) yields (a point passes itself for both): the
// split axis minimises the summed margins over all legal distributions,
// the split index minimises overlap (area breaks ties). It returns the
// items in the chosen ordering and the cut; order[:cut] is the left
// group, order[cut:] the right. The per-class MultiTree and the per-class
// forest both split leaves (plain and weighted) and inner nodes through
// it.
//
// The orderings are stable sorts of one index permutation applied in
// sequence — lower then upper bound per axis, then the winning one
// again — so ties fall the way that sequence leaves them.
func splitOrder(n int, bounds func(i int) (lo, hi []float64), dim, minFill int) (order []int, cut int) {
	return splitOrderOf(n, bounds, dim, minFill, false)
}

// splitOrderOf is splitOrder, told by points that every item is a point
// (lo == hi). A point's upper-bound pass would stable-sort the ordering
// its lower-bound pass just left by the same keys — changing nothing —
// and score the same margin, which the strict comparison never prefers;
// so points are scored by the lower-bound pass alone, and split the same.
func splitOrderOf(n int, bounds func(i int) (lo, hi []float64), dim, minFill int, points bool) (order []int, cut int) {
	// One block: the items' bounds, read once, then a rectangle per cut.
	block := make([]float64, (4*n+2)*dim)
	s := splitter{n: n, dim: dim, minFill: minFill, order: make([]int, n)}
	s.lo, s.hi = carve(&block, n*dim), carve(&block, n*dim)
	s.sufLo, s.sufHi = carve(&block, (n+1)*dim), carve(&block, (n+1)*dim)
	for i := 0; i < n; i++ {
		lo, hi := bounds(i)
		copy(s.lo[i*dim:(i+1)*dim], lo)
		copy(s.hi[i*dim:(i+1)*dim], hi)
		s.order[i] = i
	}
	passes := []bool{true, false} // lower bound first, then upper
	if points {
		passes = passes[:1]
	}
	bestAxis, bestLower := 0, true
	bestMargin := math.Inf(1)
	for axis := 0; axis < dim; axis++ {
		for _, lower := range passes {
			s.sortBy(axis, lower)
			s.suffixes()
			var margin float64
			for k := 1; k <= n-minFill; k++ {
				if left := s.growPrefix(k); k >= minFill {
					margin += left.Margin() + s.suffix(k).Margin()
				}
			}
			if margin < bestMargin {
				bestMargin, bestAxis, bestLower = margin, axis, lower
			}
		}
	}
	s.sortBy(bestAxis, bestLower)
	s.suffixes()
	cut = minFill
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for k := 1; k <= n-minFill; k++ {
		left := s.growPrefix(k)
		if k < minFill {
			continue
		}
		right := s.suffix(k)
		overlap := mbr.OverlapArea(left, right)
		area := left.Area() + right.Area()
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			cut, bestOverlap, bestArea = k, overlap, area
		}
	}
	return s.order, cut
}

// splitter is splitOrder's working state: the items' bounds as flat
// item-major keys, the current ordering, and a table of bounding
// rectangles so that scoring every cut of an ordering takes one
// backward and one forward pass over the items.
type splitter struct {
	n, dim, minFill int
	lo, hi          []float64
	order           []int
	// Row k (minFill ≤ k ≤ n−minFill) bounds order[k:], the right-hand
	// group of cut k. Row n is the running rectangle of either pass.
	sufLo, sufHi []float64
}

// sortBy stable-sorts the ordering by the items' lower (else upper)
// bound on axis, the other bound breaking ties.
func (s *splitter) sortBy(axis int, lower bool) {
	k1, k2, dim := s.lo[axis:], s.hi[axis:], s.dim
	if !lower {
		k1, k2 = k2, k1
	}
	slices.SortStableFunc(s.order, func(a, b int) int {
		switch a, b := a*dim, b*dim; {
		case k1[a] < k1[b]:
			return -1
		case k1[a] > k1[b]:
			return 1
		case k2[a] < k2[b]:
			return -1
		case k2[a] > k2[b]:
			return 1
		}
		return 0
	})
}

func (s *splitter) suffix(k int) mbr.Rect {
	return mbr.Rect{Lo: s.sufLo[k*s.dim : (k+1)*s.dim], Hi: s.sufHi[k*s.dim : (k+1)*s.dim]}
}

// extend grows the running rectangle to cover item i.
func (s *splitter) extend(run mbr.Rect, i int) {
	lo, hi := s.lo[i*s.dim:(i+1)*s.dim], s.hi[i*s.dim:(i+1)*s.dim]
	runLo, runHi := run.Lo[:len(lo)], run.Hi[:len(hi)]
	for d, v := range lo {
		runLo[d] = min(runLo[d], v)
	}
	for d, v := range hi {
		runHi[d] = max(runHi[d], v)
	}
}

// suffixes fills the right-hand rectangle of every legal cut of the
// current ordering, then empties the running rectangle for the prefix
// pass.
func (s *splitter) suffixes() {
	run := s.suffix(s.n)
	fillEmpty(run)
	for k := s.n - 1; k >= s.minFill; k-- {
		s.extend(run, s.order[k])
		if k <= s.n-s.minFill {
			row := s.suffix(k)
			copy(row.Lo, run.Lo)
			copy(row.Hi, run.Hi)
		}
	}
	fillEmpty(run)
}

// growPrefix extends the running rectangle from order[:k-1] to
// order[:k], the left-hand group of cut k, and returns it.
func (s *splitter) growPrefix(k int) mbr.Rect {
	run := s.suffix(s.n)
	s.extend(run, s.order[k-1])
	return run
}

// fillEmpty resets r to the canonical empty rectangle (see mbr.Empty).
func fillEmpty(r mbr.Rect) {
	for i := range r.Lo {
		r.Lo[i] = math.Inf(1)
		r.Hi[i] = math.Inf(-1)
	}
}

// gather returns the items at the given indices, in that order.
func gather[T any](items []T, idx []int) []T {
	out := make([]T, len(idx))
	for k, i := range idx {
		out[k] = items[i]
	}
	return out
}
