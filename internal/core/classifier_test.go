package core

import (
	"math"
	"math/rand"
	"testing"
)

// twoClassData makes two Gaussian-mixture classes with partial overlap.
func twoClassData(n int, seed int64) (xs [][]float64, ys []int) {
	rng := rand.New(rand.NewSource(seed))
	centersA := [][]float64{{0.2, 0.2}, {0.8, 0.8}}
	centersB := [][]float64{{0.2, 0.8}, {0.8, 0.2}}
	for i := 0; i < n; i++ {
		y := i % 2
		var c []float64
		if y == 0 {
			c = centersA[rng.Intn(2)]
		} else {
			c = centersB[rng.Intn(2)]
		}
		xs = append(xs, []float64{
			c[0] + rng.NormFloat64()*0.08,
			c[1] + rng.NormFloat64()*0.08,
		})
		ys = append(ys, y)
	}
	return xs, ys
}

func buildClassifier(t *testing.T, xs [][]float64, ys []int, opts ClassifierOptions) *Classifier {
	t.Helper()
	byClass := map[int][][]float64{}
	for i := range xs {
		byClass[ys[i]] = append(byClass[ys[i]], xs[i])
	}
	var trees []*MultiTree
	for y := 0; y < 10; y++ {
		pts, ok := byClass[y]
		if !ok {
			continue
		}
		tree, err := BuildRStar(smallConfig(len(xs[0])), y, pts)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	clf, err := NewClassifier(trees, opts)
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

func TestNewClassifierValidation(t *testing.T) {
	tree := rstarTree(t, smallConfig(2), [][]float64{{0, 0}})
	empty := emptyClassTree(t, smallConfig(2))
	tree3, err := BuildRStar(smallConfig(3), 1, [][]float64{{0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := twoClassData(20, 1)
	multi := buildMultiTree(t, xs, ys, MultiOptions{})

	if _, err := NewClassifier(nil, ClassifierOptions{}); err == nil {
		t.Errorf("empty classifier accepted")
	}
	if _, err := NewClassifier([]*MultiTree{empty}, ClassifierOptions{}); err == nil {
		t.Errorf("empty class tree accepted")
	}
	if _, err := NewClassifier([]*MultiTree{tree, tree3}, ClassifierOptions{}); err == nil {
		t.Errorf("mixed dims accepted")
	}
	if _, err := NewClassifier([]*MultiTree{tree, tree}, ClassifierOptions{}); err == nil {
		t.Errorf("duplicate labels accepted")
	}
	if _, err := NewClassifier([]*MultiTree{tree, nil}, ClassifierOptions{}); err == nil {
		t.Errorf("nil class tree accepted")
	}
	if _, err := NewClassifier([]*MultiTree{multi}, ClassifierOptions{}); err == nil {
		t.Errorf("a two-class tree accepted as a class tree")
	}
}

func TestDefaultK(t *testing.T) {
	if DefaultK(1) != 1 || DefaultK(2) != 2 || DefaultK(26) != 2 {
		t.Errorf("DefaultK wrong: %d %d %d", DefaultK(1), DefaultK(2), DefaultK(26))
	}
}

func TestClassifierSeparablePerfect(t *testing.T) {
	// Fully separated classes: even tiny budgets should classify
	// perfectly.
	rng := rand.New(rand.NewSource(1))
	var xs [][]float64
	var ys []int
	for i := 0; i < 200; i++ {
		y := i % 2
		xs = append(xs, []float64{float64(y)*10 + rng.NormFloat64()*0.1, rng.NormFloat64() * 0.1})
		ys = append(ys, y)
	}
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	for _, budget := range []int{0, 1, 5, -1} {
		for i := 0; i < 50; i++ {
			if got := clf.Classify(xs[i], budget); got != ys[i] {
				t.Fatalf("budget %d: object %d classified %d, want %d", budget, i, got, ys[i])
			}
		}
	}
}

func TestAccuracyImprovesWithBudget(t *testing.T) {
	xs, ys := twoClassData(600, 2)
	clf := buildClassifier(t, xs[:400], ys[:400], ClassifierOptions{})
	acc := func(budget int) float64 {
		correct := 0
		for i := 400; i < 600; i++ {
			if clf.Classify(xs[i], budget) == ys[i] {
				correct++
			}
		}
		return float64(correct) / 200
	}
	a0, aFull := acc(0), acc(-1)
	// The XOR-style layout makes the unimodal level-0 model near-chance
	// while the refined model should be nearly perfect.
	if a0 > 0.8 {
		t.Logf("level-0 accuracy unexpectedly high: %v", a0)
	}
	if aFull < 0.95 {
		t.Errorf("full-model accuracy %v, want ≥ 0.95", aFull)
	}
	if aFull <= a0 {
		t.Errorf("no improvement from refinement: %v → %v", a0, aFull)
	}
}

func TestClassifyTraceSemantics(t *testing.T) {
	xs, ys := twoClassData(300, 3)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	trace := clf.ClassifyTrace(xs[0], 50)
	if len(trace) != 51 {
		t.Fatalf("trace length %d, want 51", len(trace))
	}
	// The final trace entry must equal Classify at the same budget.
	if got := clf.Classify(xs[0], 50); got != trace[50] {
		t.Errorf("Classify(50) = %d, trace[50] = %d", got, trace[50])
	}
	// A huge budget exhausts the models and pads the tail.
	big := clf.ClassifyTrace(xs[0], 100000)
	last := big[len(big)-1]
	if clf.Classify(xs[0], -1) != last {
		t.Errorf("exhausted trace tail disagrees with unlimited Classify")
	}
	// A negative budget is a trace of the level-0 answer alone.
	for _, budget := range []int{-1, -2} {
		if got := clf.ClassifyTrace(xs[0], budget); len(got) != 1 || got[0] != clf.Classify(xs[0], 0) {
			t.Errorf("budget %d: trace %v, want the one level-0 prediction %d", budget, got, clf.Classify(xs[0], 0))
		}
	}
}

// glo descent should dominate bft in anytime accuracy at small budgets —
// the paper's Section 2.2 finding, asserted end-to-end.
func TestGlobalBeatsBreadthFirstAccuracy(t *testing.T) {
	xs, ys := twoClassData(800, 4)
	train, trainY := xs[:500], ys[:500]
	test, testY := xs[500:], ys[500:]
	meanAcc := func(strategy Strategy) float64 {
		clf := buildClassifier(t, train, trainY, ClassifierOptions{Strategy: strategy})
		var total float64
		for i := range test {
			trace := clf.ClassifyTrace(test[i], 20)
			for _, pred := range trace {
				if pred == testY[i] {
					total++
				}
			}
		}
		return total / float64(len(test)*21)
	}
	glo, bft := meanAcc(DescentGlobal), meanAcc(DescentBFT)
	if glo < bft-0.02 {
		t.Errorf("glo anytime accuracy %v clearly worse than bft %v", glo, bft)
	}
}

func TestQueryStepAccounting(t *testing.T) {
	xs, ys := twoClassData(300, 5)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	q := clf.NewQuery(xs[0])
	if q.NodesRead() != 0 {
		t.Fatalf("fresh query read %d nodes", q.NodesRead())
	}
	for i := 1; i <= 10; i++ {
		if !q.Step() {
			t.Fatalf("step %d failed early", i)
		}
		if q.NodesRead() != i {
			t.Fatalf("after %d steps, NodesRead = %d", i, q.NodesRead())
		}
	}
	// Run to exhaustion; afterwards Step must return false and the node
	// count must stop growing.
	for q.Step() {
	}
	n := q.NodesRead()
	if q.Step() {
		t.Fatalf("step after exhaustion")
	}
	if q.NodesRead() != n {
		t.Fatalf("node count changed after exhaustion")
	}
	if !q.Exhausted() {
		t.Fatalf("not exhausted")
	}
}

// The forest query's node count is the sum of its class queries' reads
// at every budget, under every strategy and priority: each qbk turn
// steps one class query, which reads one node.
func TestForestNodesReadIsClassReads(t *testing.T) {
	xs, ys := twoClassData(300, 5)
	for _, strat := range []Strategy{DescentGlobal, DescentBFT, DescentDFT} {
		for _, prio := range []Priority{PriorityProbabilistic, PriorityGeometric} {
			clf := buildClassifier(t, xs, ys, ClassifierOptions{Strategy: strat, Priority: prio})
			q := clf.NewQuery(xs[7])
			for step := 0; ; step++ {
				sum := 0
				for _, mq := range q.queries {
					sum += mq.NodesRead()
				}
				if q.NodesRead() != sum || q.NodesRead() != step {
					t.Fatalf("%v/%v after %d steps: NodesRead %d, class queries read %d", strat, prio, step, q.NodesRead(), sum)
				}
				if !q.Step() {
					break
				}
			}
			q.Close()
		}
	}
}

func TestPosteriorsNormalised(t *testing.T) {
	xs, ys := twoClassData(300, 6)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	q := clf.NewQuery(xs[1])
	for step := 0; step < 30; step++ {
		post := q.Posteriors()
		var sum float64
		for _, p := range post {
			if p < 0 || math.IsNaN(p) {
				t.Fatalf("invalid posterior %v", post)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("posteriors sum to %v", sum)
		}
		q.Step()
	}
}

// qbk with k=2 must alternate between the two most probable classes: with
// 3 classes, the clearly least probable one should receive (almost) no
// refinements at small budgets.
func TestQBKSkipsImprobableClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs [][]float64
	var ys []int
	centers := [][]float64{{0, 0}, {0.5, 0.5}, {10, 10}}
	for i := 0; i < 300; i++ {
		y := i % 3
		xs = append(xs, []float64{
			centers[y][0] + rng.NormFloat64()*0.2,
			centers[y][1] + rng.NormFloat64()*0.2,
		})
		ys = append(ys, y)
	}
	clf := buildClassifier(t, xs, ys, ClassifierOptions{K: 2})
	// Query between class 0 and 1: class 2 is hopeless and must not be
	// refined while 0 and 1 still have refinable structure.
	q := clf.NewQuery([]float64{0.25, 0.25})
	for i := 0; i < 8; i++ {
		q.Step()
	}
	if got := q.queries[2].NodesRead(); got != 0 {
		t.Errorf("improbable class refined %d times within the first 8 steps", got)
	}
	reads01 := q.queries[0].NodesRead() + q.queries[1].NodesRead()
	if reads01 != 8 {
		t.Errorf("top-2 classes read %d nodes, want all 8", reads01)
	}
}

func TestLearnOnline(t *testing.T) {
	xs, ys := twoClassData(200, 8)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	n0 := clf.Tree(0).Len()
	if err := clf.Learn([]float64{0.21, 0.19}, 0); err != nil {
		t.Fatal(err)
	}
	if clf.Tree(0).Len() != n0+1 {
		t.Errorf("Learn did not grow the class tree")
	}
	if err := clf.Learn([]float64{0, 0}, 99); err == nil {
		t.Errorf("unknown label accepted")
	}
	// Heavy online learning keeps invariants intact.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		if err := clf.Learn([]float64{rng.Float64(), rng.Float64()}, i%2); err != nil {
			t.Fatal(err)
		}
	}
	for _, y := range clf.Labels() {
		if err := clf.Tree(y).Validate(); err != nil {
			t.Fatalf("tree %d invalid after online learning: %v", y, err)
		}
	}
}

func TestLearnShiftsPriors(t *testing.T) {
	xs, ys := twoClassData(100, 10)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	// Massively grow class 1; a query at the exact overlap point should
	// then prefer class 1 at budget 0 via the prior.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		x := []float64{0.5 + rng.NormFloat64()*0.3, 0.5 + rng.NormFloat64()*0.3}
		if err := clf.Learn(x, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := clf.Classify([]float64{0.5, 0.5}, 0); got != 1 {
		t.Errorf("prior shift ignored: predicted %d", got)
	}
}

func TestOptionsDefaulting(t *testing.T) {
	xs, ys := twoClassData(100, 12)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	if clf.Options().K != 2 {
		t.Errorf("default K = %d, want 2", clf.Options().K)
	}
	if clf.NumClasses() != 2 {
		t.Errorf("NumClasses = %d", clf.NumClasses())
	}
	clf = buildClassifier(t, xs, ys, ClassifierOptions{K: 50})
	if clf.Options().K != 2 {
		t.Errorf("K should clamp to class count, got %d", clf.Options().K)
	}
	if clf.Tree(99) != nil {
		t.Errorf("Tree(unknown) should be nil")
	}
}

// NumClasses returns the number of classes.
func (c *Classifier) NumClasses() int { return len(c.labels) }
