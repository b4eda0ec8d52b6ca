package core

import (
	"math"
	"slices"

	"bayestree/internal/mbr"
)

// split performs the R* topological split on n items whose rectangles
// bounds(i) yields (a point passes itself for both): the split axis
// minimises the summed margins over all legal distributions, the split
// index minimises overlap (area breaks ties). It returns the items in
// the chosen ordering and the cut; order[:cut] is the left group,
// order[cut:] the right. The order is s's, valid until its next split: a
// tree splits its nodes — leaves (plain and weighted) and inner nodes
// alike — in the splitter it keeps (splitNode).
//
// The orderings are stable sorts of one index permutation applied in
// sequence — lower then upper bound per axis, then the winning one
// again — so ties fall the way that sequence leaves them. With points
// every item is a point (lo == hi): a point's upper-bound pass would
// stable-sort the ordering its lower-bound pass just left by the same
// keys — changing nothing — and score the same margin, which the strict
// comparison never prefers; so points are scored by the lower-bound
// pass alone, and split the same.
func (s *splitter) split(n int, bounds func(i int) (lo, hi []float64), dim, minFill int, points bool) (order []int, cut int) {
	// One block: the items' bounds, read once, a margin per cut and a
	// rectangle per cut.
	size := (4*n+2)*dim + n + 1
	s.block = slices.Grow(s.block[:0], size)[:size]
	block := s.block
	s.n, s.dim, s.minFill = n, dim, minFill
	s.lo, s.hi = carve(&block, n*dim), carve(&block, n*dim)
	s.sufMargin = carve(&block, n+1)
	s.sufLo, s.sufHi = carve(&block, (n+1)*dim), carve(&block, (n+1)*dim)
	s.order = slices.Grow(s.order[:0], n)[:n]
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
			s.suffixes(false)
			var margin float64
			for k := 1; k <= n-minFill; k++ {
				if left := s.growPrefix(k); k >= minFill {
					margin += left.Margin() + s.sufMargin[k]
				}
			}
			if margin < bestMargin {
				bestMargin, bestAxis, bestLower = margin, axis, lower
			}
		}
	}
	s.sortBy(bestAxis, bestLower)
	s.suffixes(true)
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

// splitter is split's working state: the items' bounds as flat
// item-major keys, the current ordering, and per cut the right-hand
// group's margin and rectangle, so that scoring every cut of an
// ordering takes one backward and one forward pass over the items. A
// tree keeps one and reuses its storage for every split.
type splitter struct {
	n, dim, minFill int
	block           []float64 // backs lo, hi, sufMargin, sufLo, sufHi
	lo, hi          []float64
	order           []int
	// sufMargin[k] (minFill ≤ k ≤ n−minFill) is the margin of order[k:],
	// the right-hand group of cut k. Rows k of sufLo/sufHi bound that
	// group, filled for the winning ordering only; row n is the running
	// rectangle of either pass.
	sufMargin    []float64
	sufLo, sufHi []float64
	sorts        int // sort passes so far
}

// sortBy stable-sorts the ordering by the items' lower (else upper)
// bound on axis, the other bound breaking ties: an insertion sort, since
// a node holds a few dozen items at most.
func (s *splitter) sortBy(axis int, lower bool) {
	s.sorts++
	k1, k2, dim := s.lo[axis:], s.hi[axis:], s.dim
	if !lower {
		k1, k2 = k2, k1
	}
	o := s.order
	for i := 1; i < len(o); i++ {
		v := o[i]
		a, b := k1[v*dim], k2[v*dim]
		j := i
		for ; j > 0; j-- {
			u := o[j-1] * dim
			if k1[u] < a || k1[u] == a && k2[u] <= b {
				break
			}
			o[j] = o[j-1]
		}
		o[j] = v
	}
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

// suffixes records the right-hand group of every legal cut of the
// current ordering — its margin, or with rows its rectangle — then
// empties the running rectangle for the prefix pass.
func (s *splitter) suffixes(rows bool) {
	run := s.suffix(s.n)
	fillEmpty(run)
	for k := s.n - 1; k >= s.minFill; k-- {
		s.extend(run, s.order[k])
		switch {
		case k > s.n-s.minFill:
		case rows:
			row := s.suffix(k)
			copy(row.Lo, run.Lo)
			copy(row.Hi, run.Hi)
		default:
			s.sufMargin[k] = run.Margin()
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

// carve cuts the next n values off a block.
func carve(block *[]float64, n int) []float64 {
	out := (*block)[:n:n]
	*block = (*block)[n:]
	return out
}
