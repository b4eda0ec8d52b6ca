package eval

import (
	"fmt"
	"math"
	"testing"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/stats"
)

// Invariant (i), anytime quality (ARCHITECTURE.md): the answer read at
// budget 0 is the level-0 model, and the anytime curves oscillate no more
// than they did when recorded. These tests pin both on the per-class
// forest and the MultiTree; internal/server pins budget 0 on a sharded
// Server.

// qualityData are the pinned data sets: small Pendigits and Gender.
func qualityData(t *testing.T) []*dataset.Dataset {
	t.Helper()
	pen, err := dataset.Pendigits(0.06)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := dataset.Gender(0.006)
	if err != nil {
		t.Fatal(err)
	}
	return []*dataset.Dataset{pen, gen}
}

// rises sums a curve's increases between consecutive budgets: for the
// log-loss, what Oscillation is for the accuracy.
func rises(xs []float64) float64 {
	var s float64
	for i := 1; i < len(xs); i++ {
		if d := xs[i] - xs[i-1]; d > 0 {
			s += d
		}
	}
	return s
}

// TestAnytimeQualityPinned: per pinned seed, data set and strategy, the
// accuracy curve's Oscillation and the log-loss curve's rises stay at or
// under their recorded values, for the emtopdown forest and the
// MultiTree. One worker keeps every float sum in one order, so the
// values reproduce exactly. A change that lowers one updates its pin.
func TestAnytimeQualityPinned(t *testing.T) {
	// {accuracy Oscillation, log-loss rises}, recorded with Workers 1.
	pins := map[string][2]float64{
		"pendigits/7/glo/emtopdown":  {0.015151515151515027, 1.2030694206853871},
		"pendigits/7/glo/multitree":  {0.16515151515151516, 2.162231422622193},
		"pendigits/7/bft/emtopdown":  {0.016666666666666607, 1.3650433586822734},
		"pendigits/7/bft/multitree":  {0.19393939393939386, 6.018197411562636},
		"pendigits/7/dft/emtopdown":  {0.010606060606060508, 0.8812182823146839},
		"pendigits/7/dft/multitree":  {0.051515151515151736, 0.42862524378595335},
		"pendigits/42/glo/emtopdown": {0.021212121212121238, 0.8139344350228974},
		"pendigits/42/glo/multitree": {0.20303030303030312, 2.4409234382653873},
		"pendigits/42/bft/emtopdown": {0.006060606060605989, 0.7677337451024038},
		"pendigits/42/bft/multitree": {0.1636363636363637, 4.105405782795215},
		"pendigits/42/dft/emtopdown": {0.022727272727272374, 0.682052534517664},
		"pendigits/42/dft/multitree": {0.051515151515151625, 0.4659182456135115},
		"gender/7/glo/emtopdown":     {0.08947368421052615, 0.4900047736110005},
		"gender/7/glo/multitree":     {0.03245614035087718, 0.12970833471955856},
		"gender/7/bft/emtopdown":     {0.08333333333333337, 0.39467549033069604},
		"gender/7/bft/multitree":     {0.06842105263157894, 0.15151652360972245},
		"gender/7/dft/emtopdown":     {0.06315789473684219, 0.17986587211691463},
		"gender/7/dft/multitree":     {0.06491228070175437, 0.1316495906600319},
		"gender/42/glo/emtopdown":    {0.08771929824561386, 0.4229067811910848},
		"gender/42/glo/multitree":    {0.03596491228070153, 0.053639389802789705},
		"gender/42/bft/emtopdown":    {0.09473684210526301, 0.293931157022866},
		"gender/42/bft/multitree":    {0.030701754385965008, 0.07506994015688484},
		"gender/42/dft/emtopdown":    {0.06140350877192979, 0.12175610392418423},
		"gender/42/dft/multitree":    {0.050877192982455965, 0.08080295547806748},
	}
	loader, _ := bulkload.ByName("emtopdown")
	for _, ds := range qualityData(t) {
		for _, seed := range []int64{7, 42} {
			for _, strat := range []core.Strategy{core.DescentGlobal, core.DescentBFT, core.DescentDFT} {
				opts := CurveOptions{Folds: 2, MaxNodes: 40, Seed: seed, Workers: 1,
					Classifier: core.ClassifierOptions{Strategy: strat}}
				forest, err := AnytimeCurve(ds, loader, opts)
				if err != nil {
					t.Fatal(err)
				}
				multi, err := MultiCurve(ds, core.MultiOptions{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []*Curve{forest, multi} {
					key := fmt.Sprintf("%s/%d/%s/%s", ds.Name, seed, strat, c.Name)
					got := [2]float64{Oscillation(c), rises(c.LogLoss)}
					want, ok := pins[key]
					if !ok || got[0] > want[0] || got[1] > want[1] {
						t.Errorf("%q: {%v, %v}, pinned %v", key, got[0], got[1], want)
					}
				}
			}
		}
	}
}

// levelZero is the posterior of the level-0 model: per class, its prior
// times the density of one Gaussian over all its training observations
// (the root summary), normalised.
func levelZero(x []float64, byClass map[int][][]float64, labels []int) []float64 {
	var n float64
	for _, y := range labels {
		n += float64(len(byClass[y]))
	}
	scores := make([]float64, len(labels))
	for i, y := range labels {
		cf := stats.CFOfAll(byClass[y], len(x))
		scores[i] = math.Log(cf.N/n) + cf.Gaussian().LogPDF(x)
	}
	return normalise(scores)
}

func normalise(scores []float64) []float64 {
	z := stats.LogSumExp(scores)
	out := make([]float64, len(scores))
	for i, s := range scores {
		out[i] = math.Exp(s - z)
	}
	return out
}

// TestBudgetZeroIsLevelZero: before any node read, the forest and the
// MultiTree answer with the level-0 model, label for label, every
// posterior within 1e-12.
func TestBudgetZeroIsLevelZero(t *testing.T) {
	loader, _ := bulkload.ByName("emtopdown")
	for _, ds := range qualityData(t) {
		byClass, labels := ds.ByClass(), ds.Classes()
		clf, err := TrainForest(ds, loader, core.DefaultConfig, core.ClassifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mt, err := core.NewMultiTree(core.DefaultConfig(ds.Dim()), labels, core.MultiOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ds.X {
			if err := mt.Insert(ds.X[i], ds.Y[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i, x := range ds.X[:100] {
			want := levelZero(x, byClass, labels)
			q := clf.NewQuery(x)
			checkLevelZero(t, fmt.Sprintf("%s forest x%d", ds.Name, i), labels, want, q.Predict(), q.Posteriors())
			q.Close()
			mq, err := mt.NewQuery(x, core.ClassifierOptions{})
			if err != nil {
				t.Fatal(err)
			}
			checkLevelZero(t, fmt.Sprintf("%s multitree x%d", ds.Name, i), labels, want, mq.Predict(), mq.Posteriors())
			mq.Close()
		}
	}
}

func checkLevelZero(t *testing.T, what string, labels []int, want []float64, label int, got []float64) {
	t.Helper()
	best := 0
	for c := range want {
		if want[c] > want[best] {
			best = c
		}
		if math.Abs(got[c]-want[c]) > 1e-12 {
			t.Fatalf("%s: class %d posterior %v, level-0 %v", what, labels[c], got[c], want[c])
		}
	}
	if label != labels[best] {
		t.Fatalf("%s: label %d, level-0 %d", what, label, labels[best])
	}
}
