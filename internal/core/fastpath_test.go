package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"bayestree/internal/kernels"
)

// A pooled (reused) query must produce bit-identical densities to a fresh
// one at every refinement step: pooling is a pure memory optimisation.
func TestPooledCursorBitIdentical(t *testing.T) {
	tree := buildTree(t, 400, 3, 11)
	rng := rand.New(rand.NewSource(12))
	for _, strat := range []Strategy{DescentGlobal, DescentBFT, DescentDFT} {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		// Record the reference trajectory with a query that is never
		// recycled (left unclosed).
		ref := densityQuery(t, tree, x, strat, PriorityProbabilistic)
		var want []float64
		for {
			want = append(want, logDensity(ref))
			if !ref.Step() {
				break
			}
		}
		// Now run several generations of pooled queries over the same
		// object; each Close feeds the next NewQuery's reuse.
		for gen := 0; gen < 3; gen++ {
			cur := densityQuery(t, tree, x, strat, PriorityProbabilistic)
			for step := 0; ; step++ {
				if got := logDensity(cur); got != want[step] {
					t.Fatalf("%v gen %d step %d: pooled %v != fresh %v", strat, gen, step, got, want[step])
				}
				if !cur.Step() {
					break
				}
			}
			cur.Close()
		}
	}
}

// Inserting into a tree must invalidate the cached query state: a query
// created afterwards sees the new observations exactly (full refinement
// equals the direct kernel density over the grown population).
func TestInsertInvalidatesCursorCache(t *testing.T) {
	tree := buildTree(t, 150, 2, 13)
	x := []float64{0.4, 0.6}
	// Prime the cache (and the query pool).
	warm := densityQuery(t, tree, x, DescentGlobal, PriorityProbabilistic)
	refineAll(warm)
	before := logDensity(warm)
	warm.Close()
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 60; i++ {
		if err := tree.Insert([]float64{rng.Float64(), rng.Float64()}, 0); err != nil {
			t.Fatal(err)
		}
	}
	cur := densityQuery(t, tree, x, DescentGlobal, PriorityProbabilistic)
	refineAll(cur)
	got := logDensity(cur)
	cur.Close()
	want := directKernelLogDensity(tree, x)
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("post-insert density %v, want %v (stale cache?)", got, want)
	}
	if got == before {
		t.Fatalf("density unchanged by 60 inserts — cache not invalidated")
	}
	// The level-0 model must also reflect the new root summary.
	lvl0 := densityQuery(t, tree, x, DescentGlobal, PriorityProbabilistic)
	if want0 := rootEntry(tree).CFs[0].Gaussian().LogPDF(x); math.Abs(logDensity(lvl0)-want0) > 1e-9 {
		t.Fatalf("level-0 density %v, want %v", logDensity(lvl0), want0)
	}
	lvl0.Close()
}

// The mirror's frozen Gaussians must agree with the Gaussians derived
// from the cluster features everywhere in a class tree.
func TestFrozenEntriesMatchCF(t *testing.T) {
	tree := buildTree(t, 500, 3, 15)
	rng := rand.New(rand.NewSource(16))
	x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	s := tree.mirror()
	var walk func(n *MultiNode)
	walk = func(n *MultiNode) {
		if n.IsLeaf() {
			return
		}
		nd := &s.nodes[s.index[n]]
		k := len(n.entries)
		out := make([]float64, k)
		kernels.SweepFrozenLogPDFObs(x, nd.means, nd.invVar, nd.logVar, nd.logNorm, k, s.dim, nil, out)
		for i := range n.entries {
			e := &n.entries[i]
			want := e.CFs[0].Gaussian().LogPDF(x)
			if math.Abs(out[i]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("frozen %v vs CF %v", out[i], want)
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
// start, 32 node reads, answer, Close — for either query type, the
// forest's and the multi-class tree's, every descent strategy and both
// priorities. A frontier that boxes an element or an accumulator slice
// that escapes shows here by name.
func TestSteadyStateQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	xs, ys := twoClassData(2000, 32)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	x2 := []float64{0.4, 0.6}
	var sink float64
	for _, strat := range []Strategy{DescentGlobal, DescentBFT, DescentDFT} {
		for _, prio := range []Priority{PriorityProbabilistic, PriorityGeometric} {
			clf := buildClassifier(t, xs, ys, ClassifierOptions{Strategy: strat, Priority: prio})
			forest := testing.AllocsPerRun(100, func() {
				q := clf.NewQuery(x2)
				for i := 0; i < 32 && q.Step(); i++ {
				}
				sink += float64(q.Predict())
				q.Close()
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
			if forest != 0 || query != 0 {
				t.Errorf("%v/%v: a steady-state forest Query allocates %v times, a MultiQuery %v; want 0", strat, prio, forest, query)
			}
		}
	}
	_ = sink
}
