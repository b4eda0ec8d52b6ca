package core

import (
	"math"
	"math/rand"
	"testing"
)

// Trees large enough that a breadth-first query's FIFO exceeds the
// prefix-compaction threshold (1024 consumed elements), one per user of
// the shared frontier: exercises the queue-release path and re-verifies
// exactness at scale. Neither reference goes through the frontier's
// queue: the direct kernel density for the one-class tree, the
// heap-ordered exhaustive query for the multi-class tree.
func TestBFTQueueCompactionAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-tree test")
	}
	points := randPoints(rand.New(rand.NewSource(41)), 12000, 2)
	x := []float64{0.31, 0.62}
	// An exhausted queue has consumed everything, so the compaction rule
	// (more than 1024 consumed and more than half the queue) has emptied it
	// unless it never held more than 1024 elements.
	checkQueue := func(t *testing.T, nodes, reads, queued int) {
		t.Helper()
		if nodes < 2000 {
			t.Fatalf("tree too small for compaction test: %d nodes", nodes)
		}
		if reads != nodes {
			t.Fatalf("read %d nodes, tree has %d", reads, nodes)
		}
		if queued > 1024 {
			t.Fatalf("exhausted queue still holds %d consumed elements", queued)
		}
	}
	t.Run("tree", func(t *testing.T) {
		tree := rstarTree(t, smallConfig(2), points)
		cur := densityQuery(t, tree, x, DescentBFT, PriorityProbabilistic)
		reads := refineAll(cur)
		checkQueue(t, tree.Stats().Nodes, reads, len(cur.front.fifo))
		want := directKernelLogDensity(tree, x)
		if got := logDensity(cur); math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("BFT at scale: %v, want %v", got, want)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	})
	t.Run("multitree", func(t *testing.T) {
		tree, err := NewMultiTree(smallConfig(2), []int{0, 1}, MultiOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range points {
			if err := tree.Insert(p, i%2); err != nil {
				t.Fatal(err)
			}
		}
		exhaust := func(strategy Strategy) *MultiQuery {
			q, err := tree.NewQuery(x, ClassifierOptions{Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			for q.Step() {
			}
			return q
		}
		bft, glo := exhaust(DescentBFT), exhaust(DescentGlobal)
		checkQueue(t, tree.CountNodes(), bft.NodesRead(), len(bft.front.fifo))
		got, want := bft.Scores(), glo.Scores()
		for c := range want {
			if math.Abs(got[c]-want[c]) > 1e-9*(1+math.Abs(want[c])) {
				t.Fatalf("BFT at scale: scores %v, global descent's %v", got, want)
			}
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	})
}

// The same at scale for the heap-based global strategy, confirming the
// accumulator's shift rescaling stays exact through thousands of terms.
func TestGlobalCursorAccumulatorAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-tree test")
	}
	rng := rand.New(rand.NewSource(42))
	// Clustered data creates extreme density ratios between terms, the
	// stress case for the shifted accumulator.
	points := make([][]float64, 8000)
	for i := range points {
		c := float64(i%4) * 0.25
		points[i] = []float64{
			math.Mod(math.Abs(c+rng.NormFloat64()*0.01), 1),
			math.Mod(math.Abs(c+rng.NormFloat64()*0.01), 1),
			rng.Float64(),
		}
	}
	tree := rstarTree(t, smallConfig(3), points)
	x := []float64{0.25, 0.25, 0.5}
	cur := densityQuery(t, tree, x, DescentGlobal, PriorityProbabilistic)
	refineAll(cur)
	want := directKernelLogDensity(tree, x)
	if got := logDensity(cur); math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
		t.Fatalf("accumulator drift at scale: %v, want %v", got, want)
	}
}
