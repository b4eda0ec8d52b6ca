package eval

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
	"bayestree/internal/dataset"
)

func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Synthetic(dataset.SyntheticSpec{
		Name: "tiny", Size: 600, Classes: 3, Features: 4,
		ModesPerClass: 3, Spread: 0.08, Overlap: 0.3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAnytimeCurveBasics(t *testing.T) {
	ds := tinyDataset(t)
	loader, _ := bulkload.ByName("hilbert")
	c, err := AnytimeCurve(ds, loader, CurveOptions{Folds: 3, MaxNodes: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Acc) != 31 {
		t.Fatalf("curve length %d", len(c.Acc))
	}
	for i, a := range c.Acc {
		if a < 0 || a > 1 {
			t.Fatalf("accuracy[%d] = %v out of range", i, a)
		}
	}
	// Every test object of every fold is counted exactly once.
	if c.TestN != ds.Len() {
		t.Errorf("TestN = %d, want %d", c.TestN, ds.Len())
	}
	// Anytime behaviour: accuracy at the full budget must not be worse
	// than the level-0 model by a large margin (on this easy data it
	// should be clearly better).
	if c.Final() < c.At(0) {
		t.Errorf("refinement hurt: %v → %v", c.At(0), c.Final())
	}
	if c.Mean() <= 0 {
		t.Errorf("Mean = %v", c.Mean())
	}
	if c.At(-5) != c.At(0) || c.At(10000) != c.Final() {
		t.Errorf("At clamping broken")
	}
}

func TestAnytimeCurveDeterministic(t *testing.T) {
	ds := tinyDataset(t)
	loader, _ := bulkload.ByName("zcurve")
	opts := CurveOptions{Folds: 2, MaxNodes: 15, Seed: 9}
	a, err := AnytimeCurve(ds, loader, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnytimeCurve(ds, loader, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Acc {
		if a.Acc[i] != b.Acc[i] {
			t.Fatalf("nondeterministic curve at %d", i)
		}
	}
}

func TestTrainForestCoversClasses(t *testing.T) {
	ds := tinyDataset(t)
	loader, _ := bulkload.ByName("str")
	clf, err := TrainForest(ds, loader, core.DefaultConfig, core.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if clf.NumClasses() != 3 {
		t.Fatalf("classes = %d", clf.NumClasses())
	}
	for _, y := range clf.Labels() {
		if clf.Tree(y) == nil || clf.Tree(y).Len() == 0 {
			t.Fatalf("class %d tree missing", y)
		}
	}
}

func TestMultiCurve(t *testing.T) {
	ds := tinyDataset(t)
	c, err := MultiCurve(ds, core.MultiOptions{}, CurveOptions{Folds: 2, MaxNodes: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Acc) != 16 {
		t.Fatalf("curve length %d", len(c.Acc))
	}
	if c.Final() < 0.5 {
		t.Errorf("multi-tree final accuracy %v too low", c.Final())
	}
}

func TestPlotAndTableRender(t *testing.T) {
	ds := tinyDataset(t)
	loader, _ := bulkload.ByName("hilbert")
	c, err := AnytimeCurve(ds, loader, CurveOptions{Folds: 2, MaxNodes: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := PlotCurves(&buf, "test plot", []*Curve{c}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test plot") || !strings.Contains(out, "hilbert") {
		t.Errorf("plot missing title/legend:\n%s", out)
	}
	buf.Reset()
	CurveTable(&buf, []*Curve{c}, []int{0, 10, 20})
	if !strings.Contains(buf.String(), "acc@10") {
		t.Errorf("table missing budget column")
	}
	if err := PlotCurves(&buf, "empty", nil); err == nil {
		t.Errorf("empty plot accepted")
	}
	// Mismatched curve lengths rejected.
	short := &Curve{Name: "short", Acc: []float64{1}}
	if err := PlotCurves(&buf, "bad", []*Curve{c, short}); err == nil {
		t.Errorf("mismatched curves accepted")
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 5 {
		t.Fatalf("%d experiments, want 5 (table1 + 4 figure panels)", len(exps))
	}
	for _, id := range []string{"table1", "fig2", "fig3", "fig4a", "fig4b"} {
		if _, ok := ExperimentByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if _, ok := ExperimentByID("fig9"); ok {
		t.Errorf("phantom experiment found")
	}
}

func TestTable1Experiment(t *testing.T) {
	e, _ := ExperimentByID("table1")
	var buf bytes.Buffer
	curves, err := e.Run(&buf, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if curves != nil {
		t.Errorf("table1 returned curves")
	}
	out := buf.String()
	for _, name := range []string{"Pendigits", "Letter", "Gender", "Covertype", "581012"} {
		if !strings.Contains(out, name) {
			t.Errorf("table1 output missing %q", name)
		}
	}
}

// A miniature figure run: exercises the full experiment path end to end
// at a tiny scale.
func TestFigureExperimentSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiment in -short mode")
	}
	e, _ := ExperimentByID("fig2")
	e.MaxNodes = 20
	e.Folds = 2
	e.Loaders = []string{"hilbert", "iterative"}
	var buf bytes.Buffer
	curves, err := e.Run(&buf, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("%d curves", len(curves))
	}
	if !strings.Contains(buf.String(), "paper expectation") {
		t.Errorf("run output missing expectation line")
	}
}

// TestTallyByHand: two answers scored by hand. The first is right with
// posterior (0.8, 0.2); the second wrong, giving its true class 0.4.
func TestTallyByHand(t *testing.T) {
	c := &tally{rows: make([][tallyRow]float64, 1)}
	c.add(0, true, []float64{0.8, 0.2}, 0)
	c.add(0, false, []float64{0.6, 0.4}, 1)
	cv := c.curve("hand", 0)
	want := []float64{0.5, -(math.Log(0.8) + math.Log(0.4)) / 2, (0.08 + 0.72) / 2, (0.2 + 0.6) / 2}
	for i, got := range []float64{cv.Acc[0], cv.LogLoss[0], cv.Brier[0], cv.ECE[0]} {
		if math.Abs(got-want[i]) > 1e-12 {
			t.Fatalf("metric %d = %v, want %v", i, got, want[i])
		}
	}
}

// TestCurveQuality: under every descent strategy, for the forest and the
// MultiTree, the accuracy is the one ClassifyTrace's answers give — the
// quality metrics are read beside the answers, not instead of them —
// and the log-loss, Brier score and calibration error are finite and in
// range at every budget.
func TestCurveQuality(t *testing.T) {
	ds := tinyDataset(t)
	loader, _ := bulkload.ByName("emtopdown")
	for _, strategy := range []core.Strategy{core.DescentGlobal, core.DescentBFT, core.DescentDFT} {
		opts := CurveOptions{Folds: 3, MaxNodes: 20, Seed: 1, Classifier: core.ClassifierOptions{Strategy: strategy}}
		forest, err := AnytimeCurve(ds, loader, opts)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := MultiCurve(ds, core.MultiOptions{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		folds, err := ds.StratifiedKFold(opts.Folds, opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		hits := map[string][]int{"forest": make([]int, 21), "multi": make([]int, 21)}
		for _, fold := range folds {
			train, test := ds.Subset(fold.Train, "train"), ds.Subset(fold.Test, "test")
			clf, err := TrainForest(train, loader, core.DefaultConfig, opts.Classifier)
			if err != nil {
				t.Fatal(err)
			}
			mt, err := core.NewMultiTree(core.DefaultConfig(train.Dim()), train.Classes(), core.MultiOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range train.X {
				if err := mt.Insert(train.X[i], train.Y[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i, x := range test.X {
				mtrace, err := mt.ClassifyTrace(x, opts.Classifier, 20)
				if err != nil {
					t.Fatal(err)
				}
				for b, pred := range clf.ClassifyTrace(x, 20) {
					if pred == test.Y[i] {
						hits["forest"][b]++
					}
					if mtrace[b] == test.Y[i] {
						hits["multi"][b]++
					}
				}
			}
		}
		for name, c := range map[string]*Curve{"forest": forest, "multi": multi} {
			for b := range c.Acc {
				if want := float64(hits[name][b]) / float64(ds.Len()); c.Acc[b] != want {
					t.Fatalf("strategy %v %s: acc@%d = %v, ClassifyTrace gives %v", strategy, name, b, c.Acc[b], want)
				}
				if !(c.LogLoss[b] >= 0 && c.LogLoss[b] < -math.Log(probFloor)) || !(c.Brier[b] >= 0 && c.Brier[b] <= 2) || !(c.ECE[b] >= 0 && c.ECE[b] <= 1) {
					t.Fatalf("strategy %v %s @%d: logloss %v brier %v ece %v", strategy, name, b, c.LogLoss[b], c.Brier[b], c.ECE[b])
				}
			}
		}
	}
}
