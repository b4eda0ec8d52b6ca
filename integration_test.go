package bayestree

// Integration tests asserting the paper's qualitative claims end to end
// at reduced scale — the "reproduction gate" that must stay green. The
// full-scale numbers live in EXPERIMENTS.md and are regenerated by
// `anytime figures` (cmd/anytime) and the Figure benchmarks.

import (
	"testing"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/eval"
)

const gateScale = 0.1

func gateCurve(t *testing.T, dsName, loaderName string, strat core.Strategy) *eval.Curve {
	t.Helper()
	ds, err := dataset.ByName(dsName, gateScale)
	if err != nil {
		t.Fatal(err)
	}
	loader, ok := bulkload.ByName(loaderName)
	if !ok {
		t.Fatalf("unknown loader %s", loaderName)
	}
	c, err := eval.AnytimeCurve(ds, loader, eval.CurveOptions{
		Folds: 4, MaxNodes: 100, Seed: 42,
		Classifier: core.ClassifierOptions{Strategy: strat},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Paper claim (abstract, Sections 3.2/5): bulk loading via EMTopDown
// improves anytime accuracy over iterative insertion — on every data set.
func TestPaperClaimEMTopDownBeatsIterative(t *testing.T) {
	if testing.Short() {
		t.Skip("integration gate")
	}
	for _, dsName := range []string{"pendigits", "letter"} {
		em := gateCurve(t, dsName, "emtopdown", core.DescentGlobal)
		it := gateCurve(t, dsName, "iterative", core.DescentGlobal)
		area, err := eval.CurveArea(em, it)
		if err != nil {
			t.Fatal(err)
		}
		if area <= 0 {
			t.Errorf("%s: EMTopDown does not dominate Iterativ (area %v)", dsName, area)
		}
		t.Logf("%s: EMTopDown mean %.4f vs Iterativ %.4f (area +%.4f)", dsName, em.Mean(), it.Mean(), area)
	}
}

// Paper claim (Section 3.1/3.2, robust across scales): traditional
// bulk loading (Hilbert) is drastically cheaper to build than iterative
// insertion while reaching a comparable full-budget model. (The paper's
// additional observation that Hilbert also *rises* faster than Iterativ
// shows up only at the full Table 1 sizes — see EXPERIMENTS.md — so the
// scale-reduced gate checks the scale-free part of the claim.) The cost
// is counted, not timed: buildWork's summarised items, which no burst of
// load beside the test can move; the build times are logged.
func TestPaperClaimHilbertCheapAndComparable(t *testing.T) {
	if testing.Short() {
		t.Skip("integration gate")
	}
	hi := gateCurve(t, "pendigits", "hilbert", core.DescentGlobal)
	it := gateCurve(t, "pendigits", "iterative", core.DescentGlobal)
	hiWork, itWork := buildWork(t, "hilbert"), buildWork(t, "iterative")
	t.Logf("build work: Hilbert %d, Iterativ %d summarised items (%.3f); build time: Hilbert %v, Iterativ %v",
		hiWork, itWork, float64(hiWork)/float64(itWork), hi.BuildTime, it.BuildTime)
	if hiWork > itWork/2 {
		t.Errorf("Hilbert build work %d not clearly cheaper than Iterativ %d", hiWork, itWork)
	}
	if diff := it.Final() - hi.Final(); diff > 0.03 {
		t.Errorf("Hilbert final accuracy %.4f trails Iterativ %.4f by more than 3%%", hi.Final(), it.Final())
	}
}

// buildWork counts what building the class trees of gateCurve's four
// Pendigits training folds with the named loader costs: the observations
// and child entries folded into cluster-feature summaries
// (core.SummaryHook). A bulk loader summarises each node once; an
// insertion re-summarises its path on every insert, split and
// reinsertion. The Hilbert loader's curve keys and sort are not counted.
func buildWork(t *testing.T, loaderName string) int64 {
	t.Helper()
	ds, err := dataset.ByName("pendigits", gateScale)
	if err != nil {
		t.Fatal(err)
	}
	loader, ok := bulkload.ByName(loaderName)
	if !ok {
		t.Fatalf("unknown loader %s", loaderName)
	}
	folds, err := ds.StratifiedKFold(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	var items int64
	core.SummaryHook = func(n int) { items += int64(n) }
	defer func() { core.SummaryHook = nil }()
	for _, fold := range folds {
		train := ds.Subset(fold.Train, "train")
		for y, pts := range train.ByClass() {
			if _, err := loader.Build(pts, core.DefaultConfig(ds.Dim()), y); err != nil {
				t.Fatal(err)
			}
		}
	}
	return items
}

// Paper claim (Section 2.2 / Figure 4): global best-first descent beats
// breadth-first for index-packed trees on covertype-like data.
func TestPaperClaimGloBeatsBftOnCovertype(t *testing.T) {
	if testing.Short() {
		t.Skip("integration gate")
	}
	ds, err := dataset.Covertype(0.004)
	if err != nil {
		t.Fatal(err)
	}
	loader, _ := bulkload.ByName("hilbert")
	glo, err := eval.AnytimeCurve(ds, loader, eval.CurveOptions{
		Folds: 4, MaxNodes: 100, Seed: 42,
		Classifier: core.ClassifierOptions{Strategy: core.DescentGlobal},
	})
	if err != nil {
		t.Fatal(err)
	}
	bft, err := eval.AnytimeCurve(ds, loader, eval.CurveOptions{
		Folds: 4, MaxNodes: 100, Seed: 42,
		Classifier: core.ClassifierOptions{Strategy: core.DescentBFT},
	})
	if err != nil {
		t.Fatal(err)
	}
	area, err := eval.CurveArea(glo, bft)
	if err != nil {
		t.Fatal(err)
	}
	if area <= 0 {
		t.Errorf("glo does not dominate bft (area %v)", area)
	}
	t.Logf("covertype hilbert: glo mean %.4f vs bft %.4f", glo.Mean(), bft.Mean())
}

// Paper observation (Figure 4): glo curves oscillate on gender while bft
// curves are smooth.
func TestPaperClaimGloOscillatesOnGender(t *testing.T) {
	if testing.Short() {
		t.Skip("integration gate")
	}
	ds, err := dataset.Gender(0.02)
	if err != nil {
		t.Fatal(err)
	}
	loader, _ := bulkload.ByName("emtopdown")
	measure := func(s core.Strategy) float64 {
		c, err := eval.AnytimeCurve(ds, loader, eval.CurveOptions{
			Folds: 4, MaxNodes: 100, Seed: 42,
			Classifier: core.ClassifierOptions{Strategy: s},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eval.Oscillation(c)
	}
	glo := measure(core.DescentGlobal)
	bft := measure(core.DescentBFT)
	t.Logf("gender oscillation: glo %.4f, bft %.4f", glo, bft)
	// The paper reports visible oscillation for glo on this data set (and
	// leaves its cause open); assert non-monotonicity rather than a
	// glo-vs-bft ordering, which is noisy at reduced scale.
	if glo < 0.01 {
		t.Errorf("glo curve unexpectedly monotone on gender (oscillation %.4f)", glo)
	}
}

// End-to-end stream pipeline: train → stream with Poisson arrivals →
// online learning, with budgets driven by the arrival gaps.
func TestEndToEndStreamPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration gate")
	}
	ds, err := dataset.Pendigits(0.05)
	if err != nil {
		t.Fatal(err)
	}
	ds.Shuffle(1)
	half := ds.Len() / 2
	idx := make([]int, half)
	for i := range idx {
		idx[i] = i
	}
	train := ds.Subset(idx, "train")
	clf, err := Train(train, TrainOptions{Loader: "emtopdown"})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]StreamItem, 0, ds.Len()-half)
	for i := half; i < ds.Len(); i++ {
		items = append(items, StreamItem{X: ds.X[i], Label: ds.Y[i], Labeled: true})
	}
	res, err := RunStream(clf, items, 300, Budgeter{NodesPerSecond: 6000, MaxNodes: 200}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < 0.7 {
		t.Errorf("stream accuracy %.3f too low", res.Accuracy)
	}
	if res.Learned != len(items) {
		t.Errorf("learned %d of %d", res.Learned, len(items))
	}
}
