package stream

import (
	"math"
	"math/rand"
	"testing"

	"bayestree/internal/core"
	"bayestree/internal/kernels"
)

func testConfig(dim int) core.Config {
	return core.Config{
		Dim:       dim,
		MinFanout: 2, MaxFanout: 5,
		MinLeaf: 2, MaxLeaf: 8,
		Kernel: kernels.Gaussian{},
	}
}

func buildClassifier(t *testing.T, seed int64) (*core.Classifier, []Item) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var trees []*core.MultiTree
	centers := [][]float64{{0.2, 0.2}, {0.8, 0.8}}
	for _, y := range []int{0, 1} {
		pts := make([][]float64, 200)
		for i := range pts {
			pts[i] = []float64{
				centers[y][0] + rng.NormFloat64()*0.08,
				centers[y][1] + rng.NormFloat64()*0.08,
			}
		}
		tree, err := core.BuildRStar(testConfig(2), y, pts)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
	}
	clf, err := core.NewClassifier(trees, core.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	for i := 0; i < 300; i++ {
		y := i % 2
		items = append(items, Item{
			X: []float64{
				centers[y][0] + rng.NormFloat64()*0.08,
				centers[y][1] + rng.NormFloat64()*0.08,
			},
			Label:   y,
			Labeled: true,
		})
	}
	return clf, items
}

func TestBudgeter(t *testing.T) {
	b := Budgeter{NodesPerSecond: 100, MaxNodes: 50}
	if got := b.Budget(0.1); got != 10 {
		t.Errorf("Budget(0.1) = %d, want 10", got)
	}
	if got := b.Budget(10); got != 50 {
		t.Errorf("cap not applied: %d", got)
	}
	if got := b.Budget(0.001); got != 0 {
		t.Errorf("a gap under one read = %d, want 0", got)
	}
	if got := b.Budget(math.Inf(1)); got != 50 {
		t.Errorf("Inf gap = %d", got)
	}
	uncapped := Budgeter{NodesPerSecond: 1}
	if got := uncapped.Budget(math.Inf(1)); got <= 0 {
		t.Errorf("uncapped Inf gap = %d", got)
	}
}

func TestConstantArrivals(t *testing.T) {
	c := Constant{Interval: 0.25}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		if got := c.Next(rng); got != 0.25 {
			t.Fatalf("constant gap %v", got)
		}
	}
	if c.Name() != "constant" {
		t.Errorf("name %q", c.Name())
	}
}

func TestPoissonArrivals(t *testing.T) {
	p := Poisson{Rate: 100}
	rng := rand.New(rand.NewSource(2))
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		g := p.Next(rng)
		if g < 0 {
			t.Fatalf("negative gap")
		}
		sum += g
	}
	mean := sum / n
	if math.Abs(mean-0.01) > 0.001 {
		t.Errorf("mean gap %v, want ≈ 0.01", mean)
	}
	if g := (Poisson{Rate: 0}).Next(rng); !math.IsInf(g, 1) {
		t.Errorf("zero-rate gap = %v", g)
	}
}

func TestRunBasics(t *testing.T) {
	clf, items := buildClassifier(t, 1)
	res, err := Run(clf, items, Constant{Interval: 0.01}, Budgeter{NodesPerSecond: 1000, MaxNodes: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != len(items) {
		t.Fatalf("processed %d", res.Processed)
	}
	if res.Learned != len(items) {
		t.Fatalf("learned %d", res.Learned)
	}
	// Constant 0.01s gaps × 1000 nodes/s → budget 10 for everyone.
	if res.MinBudget != 10 || res.MaxBudget != 10 {
		t.Fatalf("budgets [%d,%d], want exactly 10", res.MinBudget, res.MaxBudget)
	}
	if res.Accuracy < 0.95 {
		t.Errorf("accuracy %v on separable stream", res.Accuracy)
	}
	if len(res.Predictions) != len(items) {
		t.Errorf("predictions %d", len(res.Predictions))
	}
}

func TestRunOnlineLearningGrowsTrees(t *testing.T) {
	clf, items := buildClassifier(t, 2)
	before := clf.Tree(0).Len() + clf.Tree(1).Len()
	if _, err := Run(clf, items, Poisson{Rate: 100}, Budgeter{NodesPerSecond: 1000, MaxNodes: 50}, 2); err != nil {
		t.Fatal(err)
	}
	after := clf.Tree(0).Len() + clf.Tree(1).Len()
	if after != before+len(items) {
		t.Errorf("trees grew by %d, want %d", after-before, len(items))
	}
	for _, y := range clf.Labels() {
		if err := clf.Tree(y).Validate(); err != nil {
			t.Fatalf("tree %d invalid after stream: %v", y, err)
		}
	}
}

func TestRunUnlabeledItemsNotLearned(t *testing.T) {
	clf, items := buildClassifier(t, 3)
	for i := range items {
		items[i].Labeled = i%3 == 0
	}
	res, err := Run(clf, items, Constant{Interval: 0.01}, Budgeter{NodesPerSecond: 1000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, it := range items {
		if it.Labeled {
			want++
		}
	}
	if res.Learned != want {
		t.Errorf("learned %d, want %d", res.Learned, want)
	}
}

func TestRunFasterStreamsGetSmallerBudgets(t *testing.T) {
	clf, items := buildClassifier(t, 4)
	slow, err := Run(clf, items, Poisson{Rate: 10}, Budgeter{NodesPerSecond: 1000, MaxNodes: 1000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	clf2, items2 := buildClassifier(t, 4)
	fast, err := Run(clf2, items2, Poisson{Rate: 1000}, Budgeter{NodesPerSecond: 1000, MaxNodes: 1000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fast.MeanBudget >= slow.MeanBudget {
		t.Errorf("fast stream mean budget %v ≥ slow %v", fast.MeanBudget, slow.MeanBudget)
	}
}

func TestRunNilClassifier(t *testing.T) {
	if _, err := Run(nil, nil, Constant{Interval: 1}, Budgeter{}, 1); err == nil {
		t.Errorf("nil classifier accepted")
	}
}

func TestRunUnknownLabelErrors(t *testing.T) {
	clf, _ := buildClassifier(t, 5)
	items := []Item{{X: []float64{0.5, 0.5}, Label: 42, Labeled: true}}
	if _, err := Run(clf, items, Constant{Interval: 1}, Budgeter{NodesPerSecond: 10}, 1); err == nil {
		t.Errorf("unknown stream label accepted")
	}
}

func TestBucketing(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 3: 5, 5: 5, 7: 10, 15: 20, 33: 50, 99: 100, 500: 1000}
	for in, want := range cases {
		if got := bucket(in); got != want {
			t.Errorf("bucket(%d) = %d, want %d", in, got, want)
		}
	}
}
