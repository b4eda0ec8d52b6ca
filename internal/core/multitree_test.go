package core

import (
	"math"
	"math/rand"
	"testing"
)

func buildMultiTree(t *testing.T, xs [][]float64, ys []int, mopts MultiOptions) *MultiTree {
	t.Helper()
	labels := map[int]bool{}
	for _, y := range ys {
		labels[y] = true
	}
	var ls []int
	for y := 0; y < 10; y++ {
		if labels[y] {
			ls = append(ls, y)
		}
	}
	mt, err := NewMultiTree(smallConfig(len(xs[0])), ls, mopts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if err := mt.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	return mt
}

func TestNewMultiTreeValidation(t *testing.T) {
	if _, err := NewMultiTree(smallConfig(2), nil, MultiOptions{}); err == nil {
		t.Errorf("tree without classes accepted")
	}
	if _, err := NewMultiTree(smallConfig(2), []int{1}, MultiOptions{}); err != nil {
		t.Errorf("a class tree of one class refused: %v", err)
	}
	if _, err := NewMultiTree(smallConfig(2), []int{1, 1}, MultiOptions{}); err == nil {
		t.Errorf("duplicate labels accepted")
	}
	bad := smallConfig(2)
	bad.Dim = 0
	if _, err := NewMultiTree(bad, []int{0, 1}, MultiOptions{}); err == nil {
		t.Errorf("bad config accepted")
	}
}

func TestMultiInsertValidate(t *testing.T) {
	xs, ys := twoClassData(500, 1)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	if err := mt.Validate(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if mt.Len() != 500 {
		t.Fatalf("Len = %d", mt.Len())
	}
	if err := mt.Insert([]float64{0, 0}, 42); err == nil {
		t.Errorf("unknown label accepted")
	}
	if err := mt.Insert([]float64{0}, 0); err == nil {
		t.Errorf("wrong dim accepted")
	}
	if err := mt.Insert([]float64{math.NaN(), 0}, 0); err == nil {
		t.Errorf("NaN accepted")
	}
}

func TestMultiClassifyAccuracy(t *testing.T) {
	xs, ys := twoClassData(800, 2)
	mt := buildMultiTree(t, xs[:600], ys[:600], MultiOptions{})
	correct := 0
	for i := 600; i < 800; i++ {
		pred, err := mt.Classify(xs[i], ClassifierOptions{}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if pred == ys[i] {
			correct++
		}
	}
	acc := float64(correct) / 200
	if acc < 0.9 {
		t.Errorf("multi-tree full-model accuracy %v, want ≥ 0.9", acc)
	}
}

// A single multi-class step refines every class model at once, so at tiny
// budgets the multi tree should already move beyond the level-0 model.
func TestMultiParallelRefinement(t *testing.T) {
	xs, ys := twoClassData(400, 3)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	q, err := mt.NewQuery(xs[0], ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := q.Scores()
	if !q.Step() {
		t.Fatal("first step failed")
	}
	after := q.Scores()
	changed := 0
	for c := range after {
		if math.Abs(after[c]-before[c]) > 1e-12 {
			changed++
		}
	}
	if changed < 2 {
		t.Errorf("one step changed only %d class models, want both", changed)
	}
}

func TestMultiTraceSemantics(t *testing.T) {
	xs, ys := twoClassData(300, 4)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	trace, err := mt.ClassifyTrace(xs[0], ClassifierOptions{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 31 {
		t.Fatalf("trace length %d", len(trace))
	}
	pred, err := mt.Classify(xs[0], ClassifierOptions{}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if pred != trace[30] {
		t.Errorf("trace end %d != classify %d", trace[30], pred)
	}
	// A negative budget is a trace of the level-0 answer alone.
	level0, err := mt.Classify(xs[0], ClassifierOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{-1, -2} {
		if got, err := mt.ClassifyTrace(xs[0], ClassifierOptions{}, budget); err != nil || len(got) != 1 || got[0] != level0 {
			t.Errorf("budget %d: trace %v (%v), want the one level-0 prediction %d", budget, got, err, level0)
		}
	}
}

func TestMultiQueryOnEmptyTree(t *testing.T) {
	mt, err := NewMultiTree(smallConfig(2), []int{0, 1}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mt.NewQuery([]float64{0, 0}, ClassifierOptions{}); err == nil {
		t.Errorf("query on empty multi tree accepted")
	}
}

func TestMultiPooledVarianceOption(t *testing.T) {
	xs, ys := twoClassData(600, 5)
	pooled := buildMultiTree(t, xs[:400], ys[:400], MultiOptions{PooledVariance: true})
	perClass := buildMultiTree(t, xs[:400], ys[:400], MultiOptions{})
	// Both variants must classify reasonably; they should differ in at
	// least some early-budget decisions (they use different entry models).
	var accP, accC float64
	diff := 0
	for i := 400; i < 600; i++ {
		p1, err := pooled.Classify(xs[i], ClassifierOptions{}, 5)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := perClass.Classify(xs[i], ClassifierOptions{}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if p1 == ys[i] {
			accP++
		}
		if p2 == ys[i] {
			accC++
		}
		if p1 != p2 {
			diff++
		}
	}
	if accP/200 < 0.55 || accC/200 < 0.55 {
		t.Errorf("pooled %v / per-class %v accuracy too low", accP/200, accC/200)
	}
}

func TestMultiGeometricPriorityAndBFT(t *testing.T) {
	xs, ys := twoClassData(400, 7)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	for _, opts := range []ClassifierOptions{
		{Priority: PriorityGeometric},
		{Strategy: DescentBFT},
		{Strategy: DescentDFT},
	} {
		correct := 0
		for i := 0; i < 100; i++ {
			pred, err := mt.Classify(xs[i], opts, 25)
			if err != nil {
				t.Fatal(err)
			}
			if pred == ys[i] {
				correct++
			}
		}
		if correct < 60 {
			t.Errorf("opts %+v accuracy %d/100 too low", opts, correct)
		}
	}
}

// The multi tree's per-class counts must match the inserted labels, and
// exhausting a query must read every node exactly once.
func TestMultiExhaustion(t *testing.T) {
	xs, ys := twoClassData(300, 8)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	q, err := mt.NewQuery([]float64{0.5, 0.5}, ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for q.Step() {
		reads++
	}
	nodes := countMultiNodes(mt.Root())
	if reads != nodes {
		t.Errorf("read %d nodes, tree has %d", reads, nodes)
	}
	if !q.Exhausted() {
		t.Errorf("not exhausted")
	}
}

func countMultiNodes(n *MultiNode) int {
	if n.IsLeaf() {
		return 1
	}
	total := 1
	for _, e := range n.Entries() {
		total += countMultiNodes(e.Child)
	}
	return total
}

// Fully refined multi-tree classification must agree with the per-class
// forest's fully refined classification on the same training data: both
// compute the same kernel Bayes rule.
func TestMultiAgreesWithForestWhenExhausted(t *testing.T) {
	xs, ys := twoClassData(400, 9)
	mt := buildMultiTree(t, xs[:300], ys[:300], MultiOptions{})
	clf := buildClassifier(t, xs[:300], ys[:300], ClassifierOptions{})
	agree := 0
	for i := 300; i < 400; i++ {
		a, err := mt.Classify(xs[i], ClassifierOptions{}, -1)
		if err != nil {
			t.Fatal(err)
		}
		b := clf.Classify(xs[i], -1)
		if a == b {
			agree++
		}
	}
	// Bandwidths differ slightly (per-class trees use their own CFs, the
	// multi tree uses per-class root CFs — same formula), so demand high
	// but not perfect agreement.
	if agree < 95 {
		t.Errorf("multi tree agrees with forest on %d/100 full-model decisions", agree)
	}
}

func TestMultiLabelsAccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	_ = rng
	mt, err := NewMultiTree(smallConfig(2), []int{3, 7}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := mt.Labels()
	if len(ls) != 2 || ls[0] != 3 || ls[1] != 7 {
		t.Errorf("Labels = %v", ls)
	}
}
