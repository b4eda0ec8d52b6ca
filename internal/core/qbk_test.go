package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for any insertion order of the same observations, the tree
// stores exactly the input multiset and satisfies its invariants — the
// structure may differ, the content may not.
func TestInsertionOrderPreservesContent(t *testing.T) {
	base := func(seed int64) [][]float64 {
		rng := rand.New(rand.NewSource(seed))
		return randPoints(rng, 120, 2)
	}
	f := func(seed int64, permSeed int64) bool {
		points := base(seed)
		perm := rand.New(rand.NewSource(permSeed)).Perm(len(points))
		tree, err := NewMultiTree(smallConfig(2), []int{0}, MultiOptions{})
		if err != nil {
			return false
		}
		for _, i := range perm {
			if err := tree.insertRStar(points[i]); err != nil {
				return false
			}
		}
		if err := tree.Validate(); err != nil {
			return false
		}
		// Multiset equality via coordinate sums (exact for permutations
		// of identical values summed in different orders? No — float sums
		// reorder. Compare sorted first coordinates instead).
		var stored []float64
		var walk func(n *MultiNode)
		walk = func(n *MultiNode) {
			if n.leaf {
				for _, p := range n.points {
					stored = append(stored, p.X[0])
				}
				return
			}
			for i := range n.entries {
				walk(n.entries[i].Child)
			}
		}
		walk(tree.root)
		if len(stored) != len(points) {
			return false
		}
		want := make(map[float64]int)
		for _, p := range points {
			want[p[0]]++
		}
		for _, v := range stored {
			want[v]--
		}
		for _, c := range want {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: for any query point and budget, ClassifyTrace entries are
// valid labels and the trace is consistent with repeated Classify calls
// at each budget prefix (determinism of the full anytime pipeline).
func TestTraceConsistentWithPrefixClassify(t *testing.T) {
	xs, ys := twoClassData(300, 31)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		x := []float64{rng.Float64(), rng.Float64()}
		trace := clf.ClassifyTrace(x, 30)
		for _, b := range []int{0, 3, 11, 30} {
			if got := clf.Classify(x, b); got != trace[b] {
				t.Fatalf("Classify(%d) = %d, trace[%d] = %d", b, got, b, trace[b])
			}
		}
	}
}

// k = 1 degenerates qbk to always refining the current best class; the
// classifier must still terminate and classify sensibly.
func TestQBKOne(t *testing.T) {
	xs, ys := twoClassData(400, 33)
	clf := buildClassifier(t, xs[:300], ys[:300], ClassifierOptions{K: 1})
	correct := 0
	for i := 300; i < 400; i++ {
		if clf.Classify(xs[i], 40) == ys[i] {
			correct++
		}
	}
	if correct < 80 {
		t.Errorf("k=1 accuracy %d/100", correct)
	}
}

// With k = numClasses every class gets refined in round-robin; exhausting
// all trees must read every node of every tree exactly once.
func TestQBKAllClassesExhaustsEverything(t *testing.T) {
	xs, ys := twoClassData(300, 34)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{K: 2})
	q := clf.NewQuery([]float64{0.5, 0.5})
	reads := 0
	for q.Step() {
		reads++
	}
	want := 0
	for _, y := range clf.Labels() {
		want += clf.Tree(y).Stats().Nodes
	}
	if reads != want {
		t.Fatalf("read %d nodes, forest has %d", reads, want)
	}
}

// dft descent must behave sensibly end to end (the paper evaluated it as
// the weakest strategy but it must be correct).
func TestDFTDescentCorrect(t *testing.T) {
	xs, ys := twoClassData(400, 35)
	clf := buildClassifier(t, xs[:300], ys[:300], ClassifierOptions{Strategy: DescentDFT})
	correct := 0
	for i := 300; i < 400; i++ {
		if clf.Classify(xs[i], -1) == ys[i] {
			correct++
		}
	}
	if correct < 90 {
		t.Errorf("dft full-model accuracy %d/100", correct)
	}
}
