package core

import (
	"math"
	"math/rand"
	"testing"

	"bayestree/internal/stats"
)

func decayTestConfig(dim int) Config {
	return Config{
		Dim: dim, MinFanout: 2, MaxFanout: 4, MinLeaf: 2, MaxLeaf: 4,
	}
}

func TestDecayOptionsValidate(t *testing.T) {
	bad := []DecayOptions{
		{Lambda: -1},
		{Lambda: math.NaN()},
		{Lambda: math.Inf(1)},
		{Lambda: 1, MinWeight: -0.1},
		{Lambda: 1, MinWeight: 1},
		{Lambda: 1, MinWeight: math.NaN()},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("DecayOptions %+v: want error", o)
		}
	}
	good := []DecayOptions{{}, {Lambda: 0.5}, {Lambda: 2, MinWeight: 0.25}}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("DecayOptions %+v: unexpected error %v", o, err)
		}
	}
}

// decayTree is what the decay property tests below need of a tree, so
// each runs over both shapes the tree takes: a one-class tree of the
// per-class forest and the multi-class tree the server serves.
type decayTree interface {
	EnableDecay(DecayOptions) error
	AdvanceDecay() SweepStats
	Weight() float64
	Epoch() int64
	Len() int
	Validate() error
	insert(x []float64) error
	// density is the fully refined log density at x; false when the tree
	// is empty and starts no query.
	density(x []float64) (float64, bool)
}

type decaySingle struct{ *MultiTree }

func (k decaySingle) insert(x []float64) error { return k.Insert(x, 0) }

func (k decaySingle) density(x []float64) (float64, bool) {
	q, err := k.NewQuery(x, ClassifierOptions{})
	if err != nil {
		return 0, false
	}
	defer q.Close()
	refineAll(q)
	return logDensity(q), true
}

// decayMulti alternates the labels of its inserts; its density is the
// evidence Σ_c P(c)·p(x|c).
type decayMulti struct {
	*MultiTree
	inserted int
}

func (k *decayMulti) insert(x []float64) error {
	k.inserted++
	return k.Insert(x, k.inserted%2)
}

func (k *decayMulti) density(x []float64) (float64, bool) {
	q, err := k.NewQuery(x, ClassifierOptions{})
	if err != nil {
		return 0, false
	}
	defer q.Close()
	for q.Step() {
	}
	return stats.LogSumExp(q.Scores()), true
}

// forEachDecayTree runs fn on a fresh tree of either kind.
func forEachDecayTree(t *testing.T, fn func(t *testing.T, tree decayTree)) {
	t.Run("tree", func(t *testing.T) {
		fn(t, decaySingle{emptyClassTree(t, decayTestConfig(2))})
	})
	t.Run("multitree", func(t *testing.T) {
		tree, err := NewMultiTree(decayTestConfig(2), []int{0, 1}, MultiOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fn(t, &decayMulti{MultiTree: tree})
	})
}

// mustDensity is density on a tree that must not be empty.
func mustDensity(t *testing.T, tree decayTree, x []float64) float64 {
	t.Helper()
	d, ok := tree.density(x)
	if !ok {
		t.Fatal("no query on a live tree")
	}
	return d
}

// With λ = 0 the decay surface must be inert: epochs do not advance,
// decay steps do nothing, weights stay nil and queries are untouched.
func TestDecayDisabledIsInert(t *testing.T) {
	forEachDecayTree(t, func(t *testing.T, tree decayTree) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 40; i++ {
			if err := tree.insert([]float64{rng.Float64(), rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
		x := []float64{0.4, 0.6}
		before := mustDensity(t, tree, x)

		for range 3 {
			if st := tree.AdvanceDecay(); st != (SweepStats{}) {
				t.Fatalf("decay step did work with decay disabled: %+v", st)
			}
		}
		if tree.Epoch() != 0 {
			t.Fatalf("epoch advanced with decay disabled: %d", tree.Epoch())
		}
		if w := tree.Weight(); w != float64(tree.Len()) {
			t.Fatalf("Weight %v != Len %d with decay disabled", w, tree.Len())
		}
		if after := mustDensity(t, tree, x); before != after {
			t.Fatalf("λ=0 density changed: %v -> %v", before, after)
		}
	})
}

// A decay step halves the effective mass at λ = 1 and must not change
// any query answer — rescaling every weight alike is invisible to
// densities: both trees take Silverman's n from the point count, not
// from the mass a step rescales. An insert after more steps weighs 1
// against the faded mass.
func TestDecayWeightAndSweepInvariance(t *testing.T) {
	forEachDecayTree(t, func(t *testing.T, tree decayTree) {
		if err := tree.EnableDecay(DecayOptions{Lambda: 1}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 60; i++ {
			if err := tree.insert([]float64{rng.Float64(), rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
		w0 := tree.Weight()
		if math.Abs(w0-60) > 1e-9 {
			t.Fatalf("fresh weight %v, want 60", w0)
		}
		x := []float64{0.3, 0.7}
		before := mustDensity(t, tree, x)
		tree.AdvanceDecay()
		if w := tree.Weight(); math.Abs(w-30) > 1e-9 {
			t.Fatalf("weight after one decay step %v, want 30", w)
		}
		if after := mustDensity(t, tree, x); math.Abs(before-after) > 1e-9 {
			t.Fatalf("decay step changed density: %v -> %v", before, after)
		}

		tree.AdvanceDecay()
		tree.AdvanceDecay()
		if err := tree.insert([]float64{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
		// Effective: 60 points at 30/4 total plus the new point at 1.
		want := 30.0/4 + 1
		if w := tree.Weight(); math.Abs(w-want) > 1e-9 {
			t.Fatalf("weight after a fresh insert %v, want %v", w, want)
		}
	})
}

// A full anytime refinement of a decayed tree must equal the weighted
// kernel density computed directly from the stored points and weights.
func TestDecayedDensityMatchesDirectComputation(t *testing.T) {
	tree := emptyClassTree(t, decayTestConfig(2))
	if err := tree.EnableDecay(DecayOptions{Lambda: 1}); err != nil {
		t.Fatal(err)
	}
	old := [][]float64{{0.1, 0.2}, {0.15, 0.25}, {0.2, 0.1}}
	for _, p := range old {
		if err := tree.Insert(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	tree.AdvanceDecay() // old points now weigh 1/4 of new ones
	tree.AdvanceDecay()
	fresh := [][]float64{{0.8, 0.9}, {0.85, 0.8}}
	for _, p := range fresh {
		if err := tree.Insert(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	x := []float64{0.5, 0.5}
	cur := densityQuery(t, tree, x, DescentGlobal, PriorityProbabilistic)
	refineAll(cur)
	got := logDensity(cur)
	cur.Close()

	// Direct: weights 1/4, 1/4, 1/4, 1, 1; density is
	// Σ w_i K(x, p_i) / Σ w_i with the tree's own frozen kernel.
	kern := tree.queryConsts().kern[0]
	var num, den float64
	add := func(p []float64, w float64) {
		num += w * math.Exp(kern.LogDensityObs(x, p, nil))
		den += w
	}
	for _, p := range old {
		add(p, 0.25)
	}
	for _, p := range fresh {
		add(p, 1)
	}
	want := math.Log(num / den)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("decayed density %v, want %v", got, want)
	}
}

// Decay steps with a pruning floor forget faded observations: old mass
// is dropped, fresh mass survives, and the tree stays structurally
// sound for further inserts and queries.
func TestDecaySweepPrunesOldMass(t *testing.T) {
	forEachDecayTree(t, func(t *testing.T, tree decayTree) {
		if err := tree.EnableDecay(DecayOptions{Lambda: 1, MinWeight: 0.1}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 50; i++ {
			if err := tree.insert([]float64{0.2 + 0.1*rng.Float64(), 0.2 + 0.1*rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
		var st SweepStats
		for range 4 { // factor 1/16 < 0.1: everything old must go
			st.Add(tree.AdvanceDecay())
		}
		if st.PointsPruned != 50 {
			t.Fatalf("pruned %d points, want 50 (stats %+v)", st.PointsPruned, st)
		}
		for i := 0; i < 30; i++ {
			if err := tree.insert([]float64{0.7 + 0.1*rng.Float64(), 0.7 + 0.1*rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
		if tree.Len() != 30 {
			t.Fatalf("size after pruning %d, want 30", tree.Len())
		}
		if w := tree.Weight(); math.Abs(w-30) > 1e-9 {
			t.Fatalf("weight after pruning %v, want 30", w)
		}
		// The tree still inserts and answers queries.
		if err := tree.insert([]float64{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
		if d := mustDensity(t, tree, []float64{0.75, 0.75}); math.IsInf(d, -1) || math.IsNaN(d) {
			t.Fatalf("degenerate density %v after pruning sweep", d)
		}
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// A decayed tree can fade away entirely; the empty tree must keep
// working (no query, zero weight) and accept new observations.
func TestDecaySweepToEmptyAndRecover(t *testing.T) {
	forEachDecayTree(t, func(t *testing.T, tree decayTree) {
		if err := tree.EnableDecay(DecayOptions{Lambda: 1, MinWeight: 0.2}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 40; i++ {
			if err := tree.insert([]float64{rng.Float64(), rng.Float64()}); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 {
			tree.AdvanceDecay()
		}
		if tree.Len() != 0 {
			t.Fatalf("size %d after total decay, want 0", tree.Len())
		}
		if w := tree.Weight(); w != 0 {
			t.Fatalf("weight %v after total decay, want 0", w)
		}
		if _, ok := tree.density([]float64{0.5, 0.5}); ok {
			t.Fatal("an empty tree started a query")
		}
		if err := tree.insert([]float64{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
		if tree.Len() != 1 {
			t.Fatalf("size %d after recovery insert, want 1", tree.Len())
		}
		mustDensity(t, tree, []float64{0.5, 0.5})
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// Under a continuous drifting load with periodic maintenance the tree's
// size (and so its node count) must stay bounded instead of growing
// with the stream.
func TestDecayBoundsTreeSize(t *testing.T) {
	tree, err := NewMultiTree(decayTestConfig(2), []int{0, 1}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.EnableDecay(DecayOptions{Lambda: 1, MinWeight: 0.05}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	maxSize, maxNodes := 0, 0
	const rounds, perRound = 25, 200
	for r := 0; r < rounds; r++ {
		cx := 0.1 + 0.8*float64(r)/rounds
		for i := 0; i < perRound; i++ {
			x := []float64{cx + 0.05*rng.NormFloat64(), 0.5 + 0.05*rng.NormFloat64()}
			if err := tree.Insert(x, i%2); err != nil {
				t.Fatal(err)
			}
		}
		tree.AdvanceDecay()
		if err := tree.Validate(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if tree.Len() > maxSize {
			maxSize = tree.Len()
		}
		if n := tree.CountNodes(); n > maxNodes {
			maxNodes = n
		}
	}
	// 2^(-λ) geometric fading with per-round inserts converges to
	// roughly 2x one round's volume; allow generous slack but far less
	// than the 5000 inserted.
	if maxSize > 4*perRound {
		t.Fatalf("tree size not bounded: peak %d for %d inserts/round", maxSize, perRound)
	}
	if tree.Len() == 0 {
		t.Fatal("tree decayed to empty under steady load")
	}
	t.Logf("peak size %d, peak nodes %d over %d rounds of %d inserts", maxSize, maxNodes, rounds, perRound)
}

// A decaying classifier must track an abrupt concept swap that leaves a
// non-decaying (but still learning) classifier split between the two
// contradictory concepts.
func TestClassifierDecayTracksConceptSwap(t *testing.T) {
	build := func(decay bool) *Classifier {
		trees := make([]*MultiTree, 2)
		for c := range trees {
			tr, err := NewMultiTree(decayTestConfig(2), []int{c}, MultiOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if decay {
				if err := tr.EnableDecay(DecayOptions{Lambda: 1, MinWeight: 0.05}); err != nil {
					t.Fatal(err)
				}
			}
			trees[c] = tr
		}
		rng := rand.New(rand.NewSource(6))
		// Concept A: class 0 lives bottom-left, class 1 top-right.
		centers := [][]float64{{0.25, 0.25}, {0.75, 0.75}}
		for i := 0; i < 200; i++ {
			c := i % 2
			x := []float64{centers[c][0] + 0.05*rng.NormFloat64(), centers[c][1] + 0.05*rng.NormFloat64()}
			if err := trees[c].Insert(x, c); err != nil {
				t.Fatal(err)
			}
		}
		clf, err := NewClassifier(trees, ClassifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return clf
	}
	run := func(clf *Classifier, decay bool) float64 {
		rng := rand.New(rand.NewSource(7))
		// Concept B swaps the regions: class 0 now lives top-right.
		centers := [][]float64{{0.75, 0.75}, {0.25, 0.25}}
		for step := 0; step < 8; step++ {
			for i := 0; i < 50; i++ {
				c := i % 2
				x := []float64{centers[c][0] + 0.05*rng.NormFloat64(), centers[c][1] + 0.05*rng.NormFloat64()}
				if err := clf.Learn(x, c); err != nil {
					t.Fatal(err)
				}
			}
			if decay {
				clf.AdvanceDecay()
			}
		}
		correct := 0
		const probes = 200
		for i := 0; i < probes; i++ {
			c := i % 2
			x := []float64{centers[c][0] + 0.05*rng.NormFloat64(), centers[c][1] + 0.05*rng.NormFloat64()}
			if clf.Classify(x, 40) == c {
				correct++
			}
		}
		return float64(correct) / probes
	}
	accDecay := run(build(true), true)
	accNone := run(build(false), false)
	if accDecay < 0.95 {
		t.Errorf("decaying classifier accuracy %.3f after concept swap, want ≥ 0.95", accDecay)
	}
	if accDecay <= accNone {
		t.Errorf("decay did not help: decayed %.3f vs append-only %.3f", accDecay, accNone)
	}
	t.Logf("post-swap accuracy: decay %.3f, append-only %.3f", accDecay, accNone)
}

// Close must be idempotent: a second Close (for example by a caller
// whose helper already closed the query) must not return the same
// object to the pool twice — two later queries would then share one
// instance.
func TestQueryCloseIdempotent(t *testing.T) {
	xs, ys := twoClassData(40, 8)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	x := []float64{0.5, 0.5}
	q := clf.NewQuery(x)
	q.Step()
	q.Close()
	q.Close() // must be a no-op, not a second pool Put
	a := clf.NewQuery(x)
	b := clf.NewQuery(x)
	if a == b {
		t.Fatal("double Close returned one query to the pool twice")
	}
	a.Close()
	b.Close()

	var nilQ *Query
	nilQ.Close() // nil receiver must not panic
}

// MultiQuery.Close, which a forest query's Close calls per class, has
// the same idempotency contract against the package query pool.
func TestCursorCloseIdempotent(t *testing.T) {
	tr := rstarTree(t, decayTestConfig(2), randPoints(rand.New(rand.NewSource(9)), 20, 2))
	x := []float64{0.5, 0.5}
	cur := densityQuery(t, tr, x, DescentGlobal, PriorityProbabilistic)
	cur.Step()
	cur.Close()
	cur.Close()
	a := densityQuery(t, tr, x, DescentGlobal, PriorityProbabilistic)
	b := densityQuery(t, tr, x, DescentGlobal, PriorityProbabilistic)
	if a == b {
		t.Fatal("double Close returned one query to the pool twice")
	}
	a.Close()
	b.Close()

	var nilQ *MultiQuery
	nilQ.Close() // nil receiver must not panic
}
