package core

import (
	"math"
	"math/rand"
	"testing"

	"bayestree/internal/kernels"
)

// Marginalisation correctness: the fully refined density of a query with
// a missing dimension must equal the fully refined density computed on a
// tree built from the data with that dimension dropped (diagonal models
// marginalise by dropping dimensions; only the bandwidth differs slightly
// because Silverman's factor depends on d — so we compare against a
// direct masked kernel sum instead).
func TestMissingValueDensityIsMarginal(t *testing.T) {
	tree := buildTree(t, 250, 3, 21)
	h := tree.queryConsts().bw[0]
	x := []float64{0.4, math.NaN(), 0.7}
	obs := []int{0, 2}

	cur := densityQuery(t, tree, x, DescentGlobal, PriorityProbabilistic)
	refineAll(cur)
	got := logDensity(cur)

	// Direct masked kernel sum.
	var logs []float64
	var collect func(n *MultiNode)
	collect = func(n *MultiNode) {
		if n.IsLeaf() {
			for _, p := range n.Points() {
				logs = append(logs, kernels.Gaussian{}.LogDensityObs(x, p.X, h, obs))
			}
			return
		}
		for _, e := range n.Entries() {
			collect(e.Child)
		}
	}
	collect(tree.Root())
	m := math.Inf(-1)
	for _, l := range logs {
		if l > m {
			m = l
		}
	}
	var s float64
	for _, l := range logs {
		s += math.Exp(l - m)
	}
	want := m + math.Log(s) - math.Log(float64(len(logs)))
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("masked density %v, want %v", got, want)
	}
}

// Classification with missing values: on data where one dimension is
// uninformative, dropping it must not destroy accuracy.
func TestClassifyWithMissingValues(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var xs [][]float64
	var ys []int
	for i := 0; i < 600; i++ {
		y := i % 2
		xs = append(xs, []float64{
			float64(y) + rng.NormFloat64()*0.2, // informative
			rng.Float64(),                      // noise
			float64(y) + rng.NormFloat64()*0.2, // informative
		})
		ys = append(ys, y)
	}
	clf := buildClassifier(t, xs[:400], ys[:400], ClassifierOptions{})
	correctFull, correctMissing := 0, 0
	for i := 400; i < 600; i++ {
		if clf.Classify(xs[i], 25) == ys[i] {
			correctFull++
		}
		masked := []float64{xs[i][0], math.NaN(), xs[i][2]}
		if clf.Classify(masked, 25) == ys[i] {
			correctMissing++
		}
	}
	if correctMissing < 180 {
		t.Errorf("missing-noise-dim accuracy %d/200 too low (full: %d)", correctMissing, correctFull)
	}
	// Dropping an informative dimension should hurt but not collapse.
	collapsed := 0
	for i := 400; i < 600; i++ {
		masked := []float64{math.NaN(), xs[i][1], math.NaN()}
		if clf.Classify(masked, 25) == ys[i] {
			collapsed++
		}
	}
	if collapsed > 130 {
		t.Logf("note: noise-only accuracy %d/200 (expected near chance)", collapsed)
	}
}

// Geometric priority with missing values must also work (MINDIST over
// observed dims only).
func TestMissingValueGeometricDescent(t *testing.T) {
	tree := buildTree(t, 200, 3, 23)
	x := []float64{math.NaN(), 0.5, math.NaN()}
	cur := densityQuery(t, tree, x, DescentGlobal, PriorityGeometric)
	for i := 0; i < 10; i++ {
		if !cur.Step() {
			break
		}
	}
	if ld := logDensity(cur); math.IsNaN(ld) {
		t.Fatalf("NaN density under geometric descent with missing dims")
	}
}

// Multi-class tree handles missing values too.
func TestMultiTreeMissingValues(t *testing.T) {
	xs, ys := twoClassData(400, 24)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	x := []float64{xs[0][0], math.NaN()}
	pred, err := mt.Classify(x, ClassifierOptions{}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if pred != 0 && pred != 1 {
		t.Fatalf("prediction %d not a known label", pred)
	}
}

// All-missing queries degrade to the prior (every class explains the
// empty observation equally).
func TestAllMissingFallsBackToPrior(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var xs [][]float64
	var ys []int
	// Class 1 has 4× the data of class 0.
	for i := 0; i < 500; i++ {
		y := 0
		if i%5 != 0 {
			y = 1
		}
		xs = append(xs, []float64{rng.Float64(), rng.Float64()})
		ys = append(ys, y)
	}
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	x := []float64{math.NaN(), math.NaN()}
	if got := clf.Classify(x, 10); got != 1 {
		t.Errorf("all-missing query predicted %d, want majority class 1", got)
	}
}

func TestOutlierScore(t *testing.T) {
	xs, ys := twoClassData(400, 26)
	clf := buildClassifier(t, xs, ys, ClassifierOptions{})
	inlier := clf.OutlierScore(xs[0], 30)
	outlier := clf.OutlierScore([]float64{50, -50}, 30)
	if !(outlier > inlier) {
		t.Fatalf("outlier score %v not above inlier score %v", outlier, inlier)
	}
	// Anytime property: scores remain finite and ordered at tiny budgets.
	inlier0 := clf.OutlierScore(xs[0], 0)
	outlier0 := clf.OutlierScore([]float64{50, -50}, 0)
	if math.IsNaN(inlier0) || !(outlier0 > inlier0) {
		t.Fatalf("budget-0 outlier ordering broken: %v vs %v", outlier0, inlier0)
	}
}
