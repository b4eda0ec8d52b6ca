package stream

import (
	"testing"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
)

// Online learning must track concept drift: a classifier that keeps
// learning from the stream stays accurate on the drifted concept, while a
// frozen classifier degrades — the incremental-learning motivation of
// Section 1 ("especially in the light of evolving data the model of a
// classifier has to be updated using new training data").
func TestOnlineLearningTracksDrift(t *testing.T) {
	ds, err := dataset.DriftStream(dataset.DriftSpec{
		Name: "drift", Size: 6000, Classes: 2, Features: 3,
		DriftDistance: 0.5, Abrupt: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Train both classifiers on the pre-drift head.
	const head = 1500
	build := func() *core.Classifier {
		byClass := map[int][][]float64{}
		for i := 0; i < head; i++ {
			byClass[ds.Y[i]] = append(byClass[ds.Y[i]], ds.X[i])
		}
		var trees []*core.MultiTree
		for y := 0; y <= 1; y++ {
			tree, err := core.BuildRStar(testConfig(3), y, byClass[y])
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, tree)
		}
		clf, err := core.NewClassifier(trees, core.ClassifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return clf
	}
	adaptive := build()
	frozen := build()

	// Stream the rest; score only the post-drift tail (last quarter).
	const tailStart = 4500
	var adaptCorrect, frozenCorrect, scored int
	for i := head; i < ds.Len(); i++ {
		predA := adaptive.Classify(ds.X[i], 30)
		predF := frozen.Classify(ds.X[i], 30)
		if i >= tailStart {
			scored++
			if predA == ds.Y[i] {
				adaptCorrect++
			}
			if predF == ds.Y[i] {
				frozenCorrect++
			}
		}
		// Only the adaptive classifier learns.
		if err := adaptive.Learn(ds.X[i], ds.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	accA := float64(adaptCorrect) / float64(scored)
	accF := float64(frozenCorrect) / float64(scored)
	if accA < accF+0.03 {
		t.Errorf("online learning did not track drift: adaptive %.3f vs frozen %.3f", accA, accF)
	}
	if accA < 0.75 {
		t.Errorf("adaptive post-drift accuracy %.3f too low", accA)
	}
}

// WithDecayEvery must turn stream position into decay time: running a
// decay-enabled classifier through RunBatch advances its epochs, keeps
// the model bounded and tracks the drifted concept at least as well as
// the same classifier without forgetting.
func TestWithDecayEveryAdvancesEpochsOnStream(t *testing.T) {
	ds, err := dataset.DriftStream(dataset.DriftSpec{
		Name: "drift", Size: 6000, Classes: 2, Features: 3,
		DriftDistance: 0.5, Abrupt: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	const head = 1500
	build := func(decay bool) *core.Classifier {
		byClass := map[int][][]float64{}
		for i := 0; i < head; i++ {
			byClass[ds.Y[i]] = append(byClass[ds.Y[i]], ds.X[i])
		}
		var trees []*core.MultiTree
		for y := 0; y <= 1; y++ {
			tree, err := core.BuildRStar(testConfig(3), y, byClass[y])
			if err != nil {
				t.Fatal(err)
			}
			trees = append(trees, tree)
		}
		clf, err := core.NewClassifier(trees, core.ClassifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if decay {
			if err := clf.EnableDecay(core.DecayOptions{Lambda: 1, MinWeight: 0.05}); err != nil {
				t.Fatal(err)
			}
		}
		return clf
	}
	items := make([]Item, 0, ds.Len()-head)
	for i := head; i < ds.Len(); i++ {
		items = append(items, Item{X: ds.X[i], Label: ds.Y[i], Labeled: true})
	}
	budgeter := Budgeter{NodesPerSecond: 6000, MaxNodes: 30}
	tailAcc := func(res *Result) float64 {
		correct, scored := 0, 0
		tail := len(items) * 3 / 4
		for i := tail; i < len(items); i++ {
			scored++
			if res.Predictions[i] == items[i].Label {
				correct++
			}
		}
		return float64(correct) / float64(scored)
	}

	const epochEvery = 250
	decayClf := build(true)
	resD, err := RunBatch(WithDecayEvery(decayClf, epochEvery), items, Constant{Interval: 0.01}, budgeter, 9, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	plainClf := build(false)
	resP, err := RunBatch(plainClf, items, Constant{Interval: 0.01}, budgeter, 9, 32, 2)
	if err != nil {
		t.Fatal(err)
	}

	wantEpochs := int64(len(items) / epochEvery)
	if e := decayClf.Tree(0).Epoch(); e != wantEpochs {
		t.Errorf("decay epoch %d after %d learned objects, want %d", e, len(items), wantEpochs)
	}
	accD, accP := tailAcc(resD), tailAcc(resP)
	if accD < 0.75 {
		t.Errorf("decayed post-drift accuracy %.3f too low", accD)
	}
	if accD < accP-0.01 {
		t.Errorf("forgetting hurt drift tracking: decayed %.3f vs append-only %.3f", accD, accP)
	}
	// Bounded memory: the decayed forest holds roughly the last few
	// epochs, the append-only forest the full history.
	sizeD := decayClf.Tree(0).Len() + decayClf.Tree(1).Len()
	sizeP := plainClf.Tree(0).Len() + plainClf.Tree(1).Len()
	if sizeD >= sizeP/2 {
		t.Errorf("decayed forest size %d not bounded vs append-only %d", sizeD, sizeP)
	}
	t.Logf("post-drift tail accuracy: decayed %.3f (size %d) vs append-only %.3f (size %d)", accD, sizeD, accP, sizeP)
}
