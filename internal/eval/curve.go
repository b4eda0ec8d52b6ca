// Package eval implements the paper's evaluation protocol: anytime
// classification accuracy measured after every node read, averaged over
// stratified 4-fold cross validation (Section 3.2) — with the log-loss,
// Brier score and calibration error of the posterior behind each answer
// — plus result tables and ASCII curve plots. The canned experiments in
// experiments.go regenerate Table 1 and Figures 2–4.
package eval

import (
	"fmt"
	"math"
	"runtime"
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

// Curve is an anytime quality curve. With a budget of t node reads,
// over the test objects of all folds: Acc[t] is the fraction classified
// correctly; LogLoss[t] the mean −ln of the posterior of the true class
// (clipped at probFloor); Brier[t] the mean squared distance of the
// posterior from the true class's indicator; and ECE[t] the expected
// calibration error of the top posterior over eceBins equal-width bins.
type Curve struct {
	Name                string
	Acc                 []float64
	LogLoss, Brier, ECE []float64
	BuildTime           time.Duration
	TestN               int
}

// eceBins is how many equal-width confidence bins ECE averages over, and
// probFloor the posterior a log-loss term is clipped at, so that one
// underflowed posterior cannot make a mean infinite.
const (
	eceBins   = 10
	probFloor = 1e-15
)

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

// AnytimeCurve measures the anytime quality of the classifier obtained by
// bulk loading one Bayes tree per class with the given strategy —
// the measurement behind every curve in Figures 2–4.
func AnytimeCurve(ds *dataset.Dataset, loader bulkload.Loader, opts CurveOptions) (*Curve, error) {
	return foldCurve(ds, loader.Name(), opts, func(train *dataset.Dataset, cfgFn func(int) core.Config) ([]int, opener, error) {
		clf, err := TrainForest(train, loader, cfgFn, opts.Classifier)
		if err != nil {
			return nil, nil, err
		}
		return clf.Labels(), func(x []float64) (query, func() []float64, error) {
			q := clf.NewQuery(x)
			return q, q.Posteriors, nil
		}, nil
	})
}

// TrainForest bulk loads one Bayes tree per class and assembles the
// anytime classifier (the paper's per-class architecture, Section 2.2).
func TrainForest(train *dataset.Dataset, loader bulkload.Loader, cfgFn func(int) core.Config, copts core.ClassifierOptions) (*core.Classifier, error) {
	byClass := train.ByClass()
	labels := train.Classes()
	trees := make([]*core.MultiTree, len(labels))
	cfg := cfgFn(train.Dim())
	for i, y := range labels {
		pts := byClass[y]
		if len(pts) == 0 {
			return nil, fmt.Errorf("eval: class %d has no training data", y)
		}
		t, err := loader.Build(pts, cfg, y)
		if err != nil {
			return nil, fmt.Errorf("eval: building tree for class %d with %s: %w", y, loader.Name(), err)
		}
		trees[i] = t
	}
	return core.NewClassifier(trees, copts)
}

// MultiCurve measures the anytime quality of the Section 4.1 single
// multi-class tree (built by incremental insertion) for comparison with
// the per-class forest.
func MultiCurve(ds *dataset.Dataset, mopts core.MultiOptions, opts CurveOptions) (*Curve, error) {
	return foldCurve(ds, "multitree", opts, func(train *dataset.Dataset, cfgFn func(int) core.Config) ([]int, opener, error) {
		mt, err := core.NewMultiTree(cfgFn(train.Dim()), train.Classes(), mopts)
		if err != nil {
			return nil, nil, err
		}
		for i := range train.X {
			if err := mt.Insert(train.X[i], train.Y[i]); err != nil {
				return nil, nil, err
			}
		}
		return mt.Labels(), func(x []float64) (query, func() []float64, error) {
			q, err := mt.NewQuery(x, opts.Classifier)
			if err != nil {
				return nil, nil, err
			}
			return q, q.Posteriors, nil
		}, nil
	})
}

// query is what a curve reads of core.Query and core.MultiQuery.
type query interface {
	Step() bool
	Predict() int
	Close()
}

// opener starts one test object's query and returns with it the
// posterior behind the query's current answer, indexed like the model's
// labels.
type opener func(x []float64) (query, func() []float64, error)

// foldCurve runs opts' stratified cross validation: per fold, build
// trains a model on the training part — what it takes is the curve's
// build time — and returns the model's labels and its opener, with which
// traceQuality reads the test part.
func foldCurve(ds *dataset.Dataset, name string, opts CurveOptions, build func(*dataset.Dataset, func(int) core.Config) ([]int, opener, error)) (*Curve, error) {
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
	sum := &tally{rows: make([][tallyRow]float64, opts.MaxNodes+1)}
	var buildTime time.Duration
	for _, fold := range folds {
		train, test := ds.Subset(fold.Train, ds.Name+"-train"), ds.Subset(fold.Test, ds.Name+"-test")
		start := time.Now()
		labels, open, err := build(train, cfgFn)
		if err != nil {
			return nil, err
		}
		buildTime += time.Since(start)
		part, err := traceQuality(test, labels, opts.MaxNodes, opts.Workers, open)
		if err != nil {
			return nil, err
		}
		sum.merge(part)
	}
	return sum.curve(name, buildTime), nil
}

// traceQuality runs every test object's query from 0 to maxNodes node
// reads and tallies its answer after each. Classification is read-only,
// so workers stride over the test objects in parallel, each into a tally
// of its own.
func traceQuality(test *dataset.Dataset, labels []int, maxNodes, workers int, open opener) (*tally, error) {
	index := make(map[int]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	workers = max(1, min(workers, test.Len()))
	parts := make([]*tally, workers)
	errs := make([]error, workers)
	core.ForEach(workers, workers, func(w int) {
		parts[w] = &tally{rows: make([][tallyRow]float64, maxNodes+1)}
		for i := w; i < test.Len(); i += workers {
			q, posterior, err := open(test.X[i])
			if err != nil {
				errs[w] = err
				return
			}
			truth, ok := index[test.Y[i]]
			if !ok {
				truth = -1
			}
			pred, p := q.Predict(), posterior()
			for t := 0; t <= maxNodes; t++ {
				if t > 0 && q.Step() {
					pred, p = q.Predict(), posterior()
				}
				parts[w].add(t, pred == test.Y[i], p, truth)
			}
			q.Close()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, p := range parts[1:] {
		parts[0].merge(p)
	}
	return parts[0], nil
}

// tallyRow is a tally's row length: three sums, then three per bin.
const tallyRow = 3 + 3*eceBins

// tally sums answer quality per budget over n test objects: row t holds
// the correct answers and the log-loss and Brier terms at t node reads,
// then per confidence bin the answers, their top posteriors and their
// correct ones.
type tally struct {
	n    int
	rows [][tallyRow]float64
}

// add scores one answer at budget t: whether it was right, the posterior
// behind it and the index of the true class in it (−1: not a class of the
// model's). Budget 0 counts the object.
func (c *tally) add(t int, hit bool, p []float64, truth int) {
	r := &c.rows[t]
	var pTrue, top float64
	if truth < 0 {
		r[2]++
	}
	for i, v := range p {
		if i == truth {
			pTrue, v = v, v-1
		}
		r[2] += v * v
		top = max(top, p[i])
	}
	r[1] -= math.Log(max(pTrue, probFloor))
	bin := r[3+3*min(int(top*eceBins), eceBins-1):]
	bin[0]++
	bin[1] += top
	if hit {
		r[0]++
		bin[2]++
	}
	if t == 0 {
		c.n++
	}
}

// merge adds o's sums into c.
func (c *tally) merge(o *tally) {
	c.n += o.n
	for t := range c.rows {
		for k := range c.rows[t] {
			c.rows[t][k] += o.rows[t][k]
		}
	}
}

// curve turns the tally into per-budget means.
func (c *tally) curve(name string, build time.Duration) *Curve {
	n := float64(c.n)
	cv := &Curve{Name: name, BuildTime: build, TestN: c.n}
	for _, r := range c.rows {
		var ece float64
		for b := 3; b < tallyRow; b += 3 {
			ece += math.Abs(r[b+2] - r[b+1])
		}
		cv.Acc = append(cv.Acc, r[0]/n)
		cv.LogLoss = append(cv.LogLoss, r[1]/n)
		cv.Brier = append(cv.Brier, r[2]/n)
		cv.ECE = append(cv.ECE, ece/n)
	}
	return cv
}
