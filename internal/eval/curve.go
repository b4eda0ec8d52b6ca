// Package eval implements the paper's evaluation protocol: anytime
// classification accuracy measured after every node read, averaged over
// stratified 4-fold cross validation (Section 3.2), plus confusion
// matrices, result tables and ASCII curve plots. The canned experiments in
// experiments.go regenerate Table 1 and Figures 2–4.
package eval

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
	"bayestree/internal/dataset"
)

// CurveOptions parameterise one anytime-accuracy measurement.
type CurveOptions struct {
	// Folds is the cross-validation fold count (default 4, as in the
	// paper).
	Folds int
	// MaxNodes is the x-axis extent: accuracy is recorded after each of
	// 0..MaxNodes node reads (default 100, as in the figures).
	MaxNodes int
	// Seed fixes the fold assignment.
	Seed int64
	// Classifier are the descent/qbk options (zero value = glo descent,
	// probabilistic priority, default k — the paper's best setting).
	Classifier core.ClassifierOptions
	// Config overrides the tree configuration; nil means
	// core.DefaultConfig(dim).
	Config func(dim int) core.Config
	// Workers bounds classification parallelism (default GOMAXPROCS).
	Workers int
}

func (o *CurveOptions) defaults() {
	if o.Folds <= 0 {
		o.Folds = 4
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 100
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Curve is an anytime accuracy curve: Acc[t] is the fraction of test
// objects classified correctly with a budget of t node reads, averaged
// over all folds.
type Curve struct {
	Name      string
	Acc       []float64
	BuildTime time.Duration
	TestN     int
}

// Final returns the accuracy at the full budget.
func (c *Curve) Final() float64 { return c.Acc[len(c.Acc)-1] }

// At returns the accuracy after t node reads (clamped to the budget).
func (c *Curve) At(t int) float64 {
	if t < 0 {
		t = 0
	}
	if t >= len(c.Acc) {
		t = len(c.Acc) - 1
	}
	return c.Acc[t]
}

// Mean returns the average accuracy over the whole curve — a scalar
// summary of anytime quality (area under the anytime curve).
func (c *Curve) Mean() float64 {
	var s float64
	for _, a := range c.Acc {
		s += a
	}
	return s / float64(len(c.Acc))
}

// AnytimeCurve measures the anytime accuracy of the classifier obtained by
// bulk loading one Bayes tree per class with the given strategy —
// the measurement behind every curve in Figures 2–4.
func AnytimeCurve(ds *dataset.Dataset, loader bulkload.Loader, opts CurveOptions) (*Curve, error) {
	opts.defaults()
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	folds, err := ds.StratifiedKFold(opts.Folds, opts.Seed)
	if err != nil {
		return nil, err
	}
	cfgFn := opts.Config
	if cfgFn == nil {
		cfgFn = core.DefaultConfig
	}
	correct := make([]int64, opts.MaxNodes+1)
	total := 0
	var buildTime time.Duration
	for _, fold := range folds {
		train := ds.Subset(fold.Train, ds.Name+"-train")
		test := ds.Subset(fold.Test, ds.Name+"-test")
		start := time.Now()
		clf, err := TrainForest(train, loader, cfgFn, opts.Classifier)
		if err != nil {
			return nil, err
		}
		buildTime += time.Since(start)
		foldCorrect, err := traceCorrect(test, opts.MaxNodes, opts.Workers, func(x []float64, trace []int) ([]int, error) {
			return clf.ClassifyTraceInto(x, opts.MaxNodes, trace), nil
		})
		if err != nil {
			return nil, err
		}
		for t := range correct {
			correct[t] += foldCorrect[t]
		}
		total += test.Len()
	}
	acc := make([]float64, opts.MaxNodes+1)
	for t := range acc {
		acc[t] = float64(correct[t]) / float64(total)
	}
	return &Curve{Name: loader.Name(), Acc: acc, BuildTime: buildTime, TestN: total}, nil
}

// TrainForest bulk loads one Bayes tree per class and assembles the
// anytime classifier (the paper's per-class architecture, Section 2.2).
func TrainForest(train *dataset.Dataset, loader bulkload.Loader, cfgFn func(int) core.Config, copts core.ClassifierOptions) (*core.Classifier, error) {
	byClass := train.ByClass()
	labels := train.Classes()
	trees := make([]*core.Tree, len(labels))
	cfg := cfgFn(train.Dim())
	for i, y := range labels {
		pts := byClass[y]
		if len(pts) == 0 {
			return nil, fmt.Errorf("eval: class %d has no training data", y)
		}
		t, err := loader.Build(pts, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: building tree for class %d with %s: %w", y, loader.Name(), err)
		}
		trees[i] = t
	}
	return core.NewClassifier(labels, trees, copts)
}

// traceCorrect classifies every test object with a full trace and counts
// correct predictions per node budget. trace writes the predictions after
// 0..maxNodes node reads of one object into the buffer it is handed
// (growing it when too small). Classification is read-only, so workers
// stride over the test objects in parallel, each with one trace buffer
// of its own: with the pooled query path that keeps the per-object cost
// allocation-free.
func traceCorrect(test *dataset.Dataset, maxNodes, workers int, trace func(x []float64, buf []int) ([]int, error)) ([]int64, error) {
	workers = max(1, min(workers, test.Len()))
	partials := make([][]int64, workers)
	errs := make([]error, workers)
	core.ForEach(workers, workers, func(w int) {
		partials[w] = make([]int64, maxNodes+1)
		var buf []int
		for i := w; i < test.Len(); i += workers {
			if buf, errs[w] = trace(test.X[i], buf); errs[w] != nil {
				return
			}
			for t, pred := range buf {
				if pred == test.Y[i] {
					partials[w][t]++
				}
			}
		}
	})
	out := make([]int64, maxNodes+1)
	for w, p := range partials {
		if errs[w] != nil {
			return nil, errs[w]
		}
		for t, v := range p {
			out[t] += v
		}
	}
	return out, nil
}

// MultiCurve measures the anytime accuracy of the Section 4.1 single
// multi-class tree (built by incremental insertion) for comparison with
// the per-class forest.
func MultiCurve(ds *dataset.Dataset, mopts core.MultiOptions, opts CurveOptions) (*Curve, error) {
	opts.defaults()
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	folds, err := ds.StratifiedKFold(opts.Folds, opts.Seed)
	if err != nil {
		return nil, err
	}
	cfgFn := opts.Config
	if cfgFn == nil {
		cfgFn = core.DefaultConfig
	}
	correct := make([]int64, opts.MaxNodes+1)
	total := 0
	var buildTime time.Duration
	for _, fold := range folds {
		train := ds.Subset(fold.Train, ds.Name+"-train")
		test := ds.Subset(fold.Test, ds.Name+"-test")
		start := time.Now()
		mt, err := core.NewMultiTree(cfgFn(train.Dim()), train.Classes(), mopts)
		if err != nil {
			return nil, err
		}
		for i := range train.X {
			if err := mt.Insert(train.X[i], train.Y[i]); err != nil {
				return nil, err
			}
		}
		buildTime += time.Since(start)
		foldCorrect, err := traceCorrect(test, opts.MaxNodes, opts.Workers, func(x []float64, trace []int) ([]int, error) {
			return mt.ClassifyTraceInto(x, opts.Classifier, opts.MaxNodes, trace)
		})
		if err != nil {
			return nil, err
		}
		for t := range correct {
			correct[t] += foldCorrect[t]
		}
		total += test.Len()
	}
	acc := make([]float64, opts.MaxNodes+1)
	for t := range acc {
		acc[t] = float64(correct[t]) / float64(total)
	}
	return &Curve{Name: "multitree", Acc: acc, BuildTime: buildTime, TestN: total}, nil
}

// ConfusionMatrix counts test predictions at a fixed node budget: the
// entry [i][j] is the number of objects of the i-th label predicted as the
// j-th label (labels in ascending order).
func ConfusionMatrix(clf *core.Classifier, test *dataset.Dataset, budget int) ([][]int, []int) {
	labels := test.Classes()
	index := make(map[int]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	m := make([][]int, len(labels))
	for i := range m {
		m[i] = make([]int, len(labels))
	}
	for i := range test.X {
		pred := clf.Classify(test.X[i], budget)
		pi, ok := index[pred]
		if !ok {
			// Prediction for a label absent from the test fold: count it
			// in the nearest existing slot to keep the matrix square.
			pi = sort.SearchInts(labels, pred)
			if pi >= len(labels) {
				pi = len(labels) - 1
			}
		}
		m[index[test.Y[i]]][pi]++
	}
	return m, labels
}

// Accuracy computes the fraction of correct predictions at a fixed budget.
func Accuracy(clf *core.Classifier, test *dataset.Dataset, budget int) float64 {
	correct := 0
	for i := range test.X {
		if clf.Classify(test.X[i], budget) == test.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(test.Len())
}
