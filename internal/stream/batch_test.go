package stream

import (
	"math/rand"
	"testing"

	"bayestree/internal/core"
)

func batchTestClassifier(t *testing.T, n int, seed int64) (*core.Classifier, []Item) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := core.DefaultConfig(2)
	trees := make([]*core.MultiTree, 2)
	for c := range trees {
		pts := make([][]float64, 80)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64() + float64(c)*3, rng.NormFloat64()}
		}
		tree, err := core.BuildRStar(cfg, c, pts)
		if err != nil {
			t.Fatal(err)
		}
		trees[c] = tree
	}
	clf, err := core.NewClassifier(trees, core.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, n)
	for i := range items {
		c := i % 2
		items[i] = Item{
			X:       []float64{rng.NormFloat64() + float64(c)*3, rng.NormFloat64()},
			Label:   c,
			Labeled: i%3 == 0,
		}
	}
	return clf, items
}

// window ≤ 1 must delegate to Run and reproduce it exactly (same rng
// consumption, same learning order, same predictions).
func TestRunBatchWindowOneEqualsRun(t *testing.T) {
	clfA, items := batchTestClassifier(t, 120, 31)
	clfB, _ := batchTestClassifier(t, 0, 31)
	arr := Poisson{Rate: 100}
	budg := Budgeter{NodesPerSecond: 2000, MaxNodes: 60}
	a, err := Run(clfA, items, arr, budg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBatch(clfB, items, arr, budg, 7, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Processed != b.Processed || a.Correct != b.Correct || a.Learned != b.Learned || a.TotalNodes != b.TotalNodes {
		t.Fatalf("window=1 diverged from Run: %+v vs %+v", a, b)
	}
	for i := range a.Predictions {
		if a.Predictions[i] != b.Predictions[i] {
			t.Fatalf("prediction %d: %d vs %d", i, a.Predictions[i], b.Predictions[i])
		}
	}
}

// Windowed parallel runs draw identical budgets and keep the accounting
// invariants; accuracy may differ slightly (labels learned per window)
// but must stay in a sane range for well separated classes.
func TestRunBatchWindowed(t *testing.T) {
	clf, items := batchTestClassifier(t, 240, 32)
	seq, err := RunBatch(nil, nil, Poisson{Rate: 1}, Budgeter{}, 0, 8, 2)
	if err == nil {
		t.Fatal("nil classifier must error")
	}
	_ = seq
	res, err := RunBatch(clf, items, Poisson{Rate: 100}, Budgeter{NodesPerSecond: 2000, MaxNodes: 60}, 7, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Processed != len(items) || len(res.Predictions) != len(items) {
		t.Fatalf("processed %d/%d", res.Processed, len(items))
	}
	if res.Learned == 0 || res.Accuracy < 0.7 {
		t.Fatalf("windowed accuracy %v (learned %d) suspiciously low", res.Accuracy, res.Learned)
	}
	var hist int
	for _, c := range res.BudgetHist {
		hist += c
	}
	if hist != res.Processed {
		t.Fatalf("budget histogram sums %d, want %d", hist, res.Processed)
	}
}

// TestRunBatchNilClassifier: both a bare nil Engine and a typed-nil
// *core.Classifier must error cleanly at any window size — a typed nil
// slips past interface nil checks and used to be a panic risk.
func TestRunBatchNilClassifier(t *testing.T) {
	items := []Item{{X: []float64{0}, Label: 0, Labeled: true}}
	for _, window := range []int{1, 4} {
		if _, err := RunBatch(nil, items, Constant{Interval: 1}, Budgeter{NodesPerSecond: 1}, 1, window, 2); err == nil {
			t.Fatalf("window %d: nil engine did not error", window)
		}
		if _, err := RunBatch((*core.Classifier)(nil), items, Constant{Interval: 1}, Budgeter{NodesPerSecond: 1}, 1, window, 2); err == nil {
			t.Fatalf("window %d: typed-nil classifier did not error", window)
		}
	}
}
