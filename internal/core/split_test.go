package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bayestree/internal/mbr"
)

// oracleSplitItems is the split routine splitOrder replaced, kept
// verbatim as the reference: it re-sorts the items in place 2·dim+1
// times and rebuilds both group rectangles from scratch at every cut.
// splitOrder must choose the same axis, cut and item order, so that
// every tree — and with it every snapshot and answer — is unchanged.
func oracleSplitItems[T any](items []T, rectOf func(T) mbr.Rect, dim, minFill int) (left, right []T) {
	xs := append([]T(nil), items...)
	m := minFill
	total := len(xs)

	bestAxis, bestLower := 0, true
	bestMargin := math.Inf(1)
	for axis := 0; axis < dim; axis++ {
		for _, lower := range []bool{true, false} {
			oracleSortByAxis(xs, rectOf, axis, lower)
			var margin float64
			for k := m; k <= total-m; k++ {
				margin += groupRect(xs[:k], rectOf, dim).Margin() + groupRect(xs[k:], rectOf, dim).Margin()
			}
			if margin < bestMargin {
				bestMargin, bestAxis, bestLower = margin, axis, lower
			}
		}
	}
	oracleSortByAxis(xs, rectOf, bestAxis, bestLower)
	bestK := m
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for k := m; k <= total-m; k++ {
		lr := groupRect(xs[:k], rectOf, dim)
		rr := groupRect(xs[k:], rectOf, dim)
		overlap := mbr.OverlapArea(lr, rr)
		area := lr.Area() + rr.Area()
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, overlap, area
		}
	}
	left = append([]T(nil), xs[:bestK]...)
	right = append([]T(nil), xs[bestK:]...)
	return left, right
}

func groupRect[T any](xs []T, rectOf func(T) mbr.Rect, dim int) mbr.Rect {
	r := mbr.Empty(dim)
	for _, x := range xs {
		r.Extend(rectOf(x))
	}
	return r
}

func oracleSortByAxis[T any](xs []T, rectOf func(T) mbr.Rect, axis int, lower bool) {
	sort.SliceStable(xs, func(a, b int) bool {
		ra, rb := rectOf(xs[a]), rectOf(xs[b])
		if lower {
			if ra.Lo[axis] != rb.Lo[axis] {
				return ra.Lo[axis] < rb.Lo[axis]
			}
			return ra.Hi[axis] < rb.Hi[axis]
		}
		if ra.Hi[axis] != rb.Hi[axis] {
			return ra.Hi[axis] < rb.Hi[axis]
		}
		return ra.Lo[axis] < rb.Lo[axis]
	})
}

// splitCoord draws a coordinate for the split tests. The tied flavours
// draw from a handful of values — both zeros among them — so most
// comparisons in a sort are ties and most rectangles share faces.
func splitCoord(rng *rand.Rand, tied bool) float64 {
	if !tied {
		return rng.NormFloat64()
	}
	return []float64{math.Copysign(0, -1), 0, 0.5, 1, 1, 2}[rng.Intn(6)]
}

// randomRects draws n rectangles: points (lo == hi) or boxes.
func randomRects(rng *rand.Rand, n, dim int, points, tied bool) []mbr.Rect {
	rects := make([]mbr.Rect, n)
	for i := range rects {
		lo, hi := make([]float64, dim), make([]float64, dim)
		for d := 0; d < dim; d++ {
			a := splitCoord(rng, tied)
			b := a
			if !points {
				b = splitCoord(rng, tied)
			}
			lo[d], hi[d] = math.Min(a, b), math.Max(a, b)
		}
		rects[i] = mbr.Rect{Lo: lo, Hi: hi}
	}
	return rects
}

// TestSplitOrderMatchesOracle: over random item sets — points and
// boxes, tie-heavy and continuous — of size MaxLeaf+1 / MaxFanout+1
// for dims 1–16 and every legal minimum fill, splitOrder returns the
// oracle's left and right groups in the oracle's order. The items are
// their own indices, which is also exactly how weighted leaves split.
func TestSplitOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for dim := 1; dim <= 16; dim++ {
		for _, capacity := range []int{2, 4, 5, 9, 16} {
			n := capacity + 1
			for minFill := 1; minFill <= capacity/2; minFill++ {
				for flavour := 0; flavour < 4; flavour++ {
					points, tied := flavour&1 == 0, flavour&2 == 0
					rects := randomRects(rng, n, dim, points, tied)
					idx := make([]int, n)
					for i := range idx {
						idx[i] = i
					}
					wantL, wantR := oracleSplitItems(idx, func(i int) mbr.Rect { return rects[i] }, dim, minFill)
					order, cut := splitOrder(n, func(i int) (lo, hi []float64) { return rects[i].Lo, rects[i].Hi }, dim, minFill)
					if !slices.Equal(order[:cut], wantL) || !slices.Equal(order[cut:], wantR) {
						t.Fatalf("dim %d n %d minFill %d points=%v tied=%v: split %v | %v, oracle %v | %v",
							dim, n, minFill, points, tied, order[:cut], order[cut:], wantL, wantR)
					}
				}
			}
		}
	}
}

// TestSplitNodeMatchesOracle drives the three call sites — plain leaf,
// weighted leaf and inner node — and checks each half holds the oracle's
// items (by identity) in the oracle's order, weights following their
// points.
func TestSplitNodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const dim = 3
	cfg := smallConfig(dim)
	multi, err := NewMultiTree(cfg, []int{0, 1}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samePoints := func(ctx string, got, want [][]float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d points, oracle %d", ctx, len(got), len(want))
		}
		for i := range got {
			if &got[i][0] != &want[i][0] {
				t.Fatalf("%s: point %d differs from the oracle's", ctx, i)
			}
		}
	}
	for round := 0; round < 50; round++ {
		tied := round%2 == 0
		// Leaves, plain and weighted.
		n := cfg.MaxLeaf + 1
		rects := randomRects(rng, n, dim, true, tied)
		points := make([][]float64, n)
		labeled := make([]LabeledPoint, n)
		weights := make([]float64, n)
		for i := range rects {
			points[i] = rects[i].Lo
			labeled[i] = LabeledPoint{X: rects[i].Lo, Label: i % 2}
			weights[i] = float64(i + 1)
		}
		wantL, wantR := oracleSplitItems(points, pointRect, dim, cfg.MinLeaf)
		wantWL, wantWR := make([]float64, len(wantL)), make([]float64, len(wantR))
		for i := range points {
			for k := range wantL {
				if &wantL[k][0] == &points[i][0] {
					wantWL[k] = weights[i]
				}
			}
			for k := range wantR {
				if &wantR[k][0] == &points[i][0] {
					wantWR[k] = weights[i]
				}
			}
		}
		for _, weighted := range []bool{false, true} {
			ctx := fmt.Sprintf("round %d weighted=%v", round, weighted)
			var ws []float64
			if weighted {
				ws = weights
			}
			ml, mr := multi.splitNode(&MultiNode{leaf: true, points: labeled, weights: ws})
			unlabel := func(ps []LabeledPoint) [][]float64 {
				out := make([][]float64, len(ps))
				for i := range ps {
					out[i] = ps[i].X
				}
				return out
			}
			samePoints(ctx+" multi left", unlabel(ml.points), wantL)
			samePoints(ctx+" multi right", unlabel(mr.points), wantR)
			for _, half := range []struct {
				got  []float64
				want []float64
			}{{ml.weights, wantWL}, {mr.weights, wantWR}} {
				if !weighted {
					if half.got != nil {
						t.Fatalf("%s: unweighted leaf split grew weights", ctx)
					}
				} else if !bitsEqual(half.got, half.want) {
					t.Fatalf("%s: weights %v, oracle %v", ctx, half.got, half.want)
				}
			}
		}
		// Inner nodes: the entries are told apart by their child.
		n = cfg.MaxFanout + 1
		rects = randomRects(rng, n, dim, false, tied)
		mentries := make([]MultiEntry, n)
		for i := range rects {
			mentries[i] = MultiEntry{Rect: rects[i], Child: &MultiNode{}}
		}
		wantML, wantMR := oracleSplitItems(mentries, func(e MultiEntry) mbr.Rect { return e.Rect }, dim, cfg.MinFanout)
		mel, mer := multi.splitNode(&MultiNode{entries: mentries})
		if len(mel.entries) != len(wantML) || len(mer.entries) != len(wantMR) {
			t.Fatalf("round %d: inner split sizes differ from the oracle's", round)
		}
		for i := range wantML {
			if mel.entries[i].Child != wantML[i].Child {
				t.Fatalf("round %d: left entry %d differs from the oracle's", round, i)
			}
		}
		for i := range wantMR {
			if mer.entries[i].Child != wantMR[i].Child {
				t.Fatalf("round %d: right entry %d differs from the oracle's", round, i)
			}
		}
	}
}

// TestSplitAllocsConstant: splitting a full leaf allocates its two
// halves and their point slices, whatever the dimension — the split's
// working storage is the tree's, reused from split to split.
func TestSplitAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var base float64
	for _, dim := range []int{2, 16, 64} {
		cfg := DefaultConfig(dim)
		multi, err := NewMultiTree(cfg, []int{0, 1}, MultiOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rects := randomRects(rng, cfg.MaxLeaf+1, dim, true, false)
		leaf := &MultiNode{leaf: true}
		for i := range rects {
			leaf.points = append(leaf.points, LabeledPoint{X: rects[i].Lo, Label: i % 2})
		}
		allocs := testing.AllocsPerRun(20, func() { multi.splitNode(leaf) })
		if dim == 2 {
			base = allocs
		}
		if allocs > 4 || allocs != base {
			t.Fatalf("dim %d: %v allocations per leaf split (dim 2: %v), want a constant ≤ 4", dim, allocs, base)
		}
	}
}

// pointRect is the degenerate rectangle covering exactly the point x.
func pointRect(x []float64) mbr.Rect {
	return mbr.Rect{Lo: slices.Clone(x), Hi: slices.Clone(x)}
}
