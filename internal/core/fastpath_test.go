package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// A pooled (reused) cursor must produce bit-identical densities to a fresh
// one at every refinement step: pooling is a pure memory optimisation.
func TestPooledCursorBitIdentical(t *testing.T) {
	tree := buildTree(t, 400, 3, 11)
	rng := rand.New(rand.NewSource(12))
	for _, strat := range []Strategy{DescentGlobal, DescentBFT, DescentDFT} {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		// Record the reference trajectory with a cursor that is never
		// recycled (left unclosed).
		ref := tree.NewCursor(x, strat, PriorityProbabilistic)
		var want []float64
		for {
			want = append(want, ref.LogDensity())
			if !ref.Refine() {
				break
			}
		}
		// Now run several generations of pooled cursors over the same
		// query; each Close feeds the next NewCursor's reuse.
		for gen := 0; gen < 3; gen++ {
			cur := tree.NewCursor(x, strat, PriorityProbabilistic)
			for step := 0; ; step++ {
				if got := cur.LogDensity(); got != want[step] {
					t.Fatalf("%v gen %d step %d: pooled %v != fresh %v", strat, gen, step, got, want[step])
				}
				if !cur.Refine() {
					break
				}
			}
			cur.Close()
		}
	}
}

// Inserting into a tree must invalidate the cached query state: a cursor
// created afterwards sees the new observations exactly (full refinement
// equals the direct kernel density over the grown population).
func TestInsertInvalidatesCursorCache(t *testing.T) {
	tree := buildTree(t, 150, 2, 13)
	x := []float64{0.4, 0.6}
	// Prime the cache (and the cursor pool).
	warm := tree.NewCursor(x, DescentGlobal, PriorityProbabilistic)
	warm.RefineAll()
	before := warm.LogDensity()
	warm.Close()
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 60; i++ {
		if err := tree.Insert([]float64{rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	cur := tree.NewCursor(x, DescentGlobal, PriorityProbabilistic)
	cur.RefineAll()
	got := cur.LogDensity()
	cur.Close()
	want := directKernelLogDensity(tree, x)
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("post-insert density %v, want %v (stale cache?)", got, want)
	}
	if got == before {
		t.Fatalf("density unchanged by 60 inserts — cache not invalidated")
	}
	// The level-0 model must also reflect the new root summary.
	lvl0 := tree.NewCursor(x, DescentGlobal, PriorityProbabilistic)
	e, _ := tree.RootEntry()
	if want0 := e.Gaussian().LogPDF(x); math.Abs(lvl0.LogDensity()-want0) > 1e-9 {
		t.Fatalf("level-0 density %v, want %v", lvl0.LogDensity(), want0)
	}
	lvl0.Close()
}

// The eagerly frozen entry cache must agree with the Gaussians derived
// from the cluster features everywhere in the tree.
func TestFrozenEntriesMatchCF(t *testing.T) {
	tree := buildTree(t, 500, 3, 15)
	rng := rand.New(rand.NewSource(16))
	x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.frozen == nil {
				t.Fatalf("entry without eager frozen cache")
			}
			want := e.CF.Gaussian().LogPDF(x)
			got := e.Frozen().LogPDF(x)
			if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("frozen %v vs CF %v", got, want)
			}
			walk(e.Child)
		}
	}
	walk(tree.Root())
}

// ClassifyBatch must reproduce sequential classification exactly, at any
// worker count (run under -race this also exercises the shared read-only
// classifier from many goroutines).
func TestClassifyBatchMatchesSequential(t *testing.T) {
	xs, ys := twoClassData(600, 21)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	want := make([]int, len(xs))
	for i, x := range xs {
		want[i] = clf.Classify(x, 15)
	}
	for _, workers := range []int{1, 2, 4, runtime.NumCPU(), 0} {
		got := clf.ClassifyBatch(xs, 15, workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d object %d: batch %d != sequential %d", workers, i, got[i], want[i])
			}
		}
	}
}

// Per-object budgets: the batch form must match per-object Classify calls.
func TestClassifyBatchBudgets(t *testing.T) {
	xs, ys := twoClassData(200, 22)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	rng := rand.New(rand.NewSource(23))
	budgets := make([]int, len(xs))
	for i := range budgets {
		budgets[i] = rng.Intn(30)
	}
	got, err := clf.ClassifyBatchBudgets(xs, budgets, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if want := clf.Classify(x, budgets[i]); got[i] != want {
			t.Fatalf("object %d: batch %d != sequential %d", i, got[i], want)
		}
	}
	if _, err := clf.ClassifyBatchBudgets(xs, budgets[:1], 4); err == nil {
		t.Fatal("mismatched budgets length must error")
	}
}

// The multi-class tree batch API must match its sequential Classify.
func TestMultiTreeClassifyBatch(t *testing.T) {
	xs, ys := twoClassData(300, 24)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	opts := ClassifierOptions{}
	got, err := mt.ClassifyBatch(xs, opts, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want, err := mt.Classify(x, opts, 12)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("object %d: batch %d != sequential %d", i, got[i], want)
		}
	}
}

// Pooled queries must not leak state between classifications: a query
// closed mid-refinement followed by a different object must classify the
// new object as a never-pooled classifier would.
func TestQueryPoolNoStateLeak(t *testing.T) {
	xs, ys := twoClassData(400, 25)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	// Interleave: classify a, then b, then a again, with varying budgets.
	a, b := xs[0], xs[len(xs)-1]
	wantA := clf.Classify(a, 40)
	for i := 0; i < 10; i++ {
		clf.Classify(b, i)
		if got := clf.Classify(a, 40); got != wantA {
			t.Fatalf("iteration %d: pooled classify drifted: %d != %d", i, got, wantA)
		}
	}
}

// TestSteadyStateQueryAllocs: a warmed, pooled query allocates nothing —
// start, 32 node reads, answer, Close — for either query type, every
// descent strategy and both priorities. A frontier that boxes an element
// or an accumulator slice that escapes shows here by name.
func TestSteadyStateQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	tree := buildTree(t, 2000, 3, 31)
	xs, ys := twoClassData(2000, 32)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	x3, x2 := []float64{0.4, 0.5, 0.6}, []float64{0.4, 0.6}
	var sink float64
	for _, strat := range []Strategy{DescentGlobal, DescentBFT, DescentDFT} {
		for _, prio := range []Priority{PriorityProbabilistic, PriorityGeometric} {
			cursor := testing.AllocsPerRun(100, func() {
				cur := tree.NewCursor(x3, strat, prio)
				for i := 0; i < 32 && cur.Refine(); i++ {
				}
				sink += cur.LogDensity()
				cur.Close()
			})
			query := testing.AllocsPerRun(100, func() {
				q, err := mt.NewQuery(x2, ClassifierOptions{Strategy: strat, Priority: prio})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 32 && q.Step(); i++ {
				}
				sink += float64(q.Predict())
				q.Close()
			})
			if cursor != 0 || query != 0 {
				t.Errorf("%v/%v: a steady-state Cursor allocates %v times, a MultiQuery %v; want 0", strat, prio, cursor, query)
			}
		}
	}
	_ = sink
}
