package bulkload

import (
	"math"
	"math/rand"
	"testing"

	"bayestree/internal/stats"
)

func twoComponent(t *testing.T) *mixture {
	t.Helper()
	m, err := newMixture(
		[]float64{0.3, 0.7},
		[]stats.Gaussian{
			{Mean: []float64{0, 0}, Var: []float64{1, 1}},
			{Mean: []float64{5, 5}, Var: []float64{2, 0.5}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	g := stats.Gaussian{Mean: []float64{0}, Var: []float64{1}}
	if _, err := newMixture([]float64{1, 1}, []stats.Gaussian{g}); err == nil {
		t.Errorf("weight/component mismatch accepted")
	}
	if _, err := newMixture(nil, nil); err == nil {
		t.Errorf("empty model accepted")
	}
	if _, err := newMixture([]float64{-1}, []stats.Gaussian{g}); err == nil {
		t.Errorf("negative weight accepted")
	}
	g2 := stats.Gaussian{Mean: []float64{0, 0}, Var: []float64{1, 1}}
	if _, err := newMixture([]float64{1, 1}, []stats.Gaussian{g, g2}); err == nil {
		t.Errorf("mixed dimensions accepted")
	}
	m, err := newMixture([]float64{2, 6}, []stats.Gaussian{g, g})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.weights[0]-0.25) > 1e-12 {
		t.Errorf("weights not normalised: %v", m.weights)
	}
}

func TestDistanceProperties(t *testing.T) {
	m := twoComponent(t)
	if d := distance(m, m); math.Abs(d) > 1e-9 {
		t.Errorf("d(f,f) = %v, want 0", d)
	}
	// Distance to a worse model is positive.
	worse, err := newMixture([]float64{1}, []stats.Gaussian{{Mean: []float64{2.5, 2.5}, Var: []float64{5, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if d := distance(m, worse); d <= 0 {
		t.Errorf("d(f,coarse) = %v, want > 0", d)
	}
}

// buildFine builds a fine mixture of k well-separated groups of small
// components; reduction to k components should land near group centres.
func buildFine(t *testing.T, groups, perGroup int, seed int64) (*mixture, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var weights []float64
	var comps []stats.Gaussian
	var centers [][]float64
	for g := 0; g < groups; g++ {
		cx, cy := float64(g*10), float64((g%2)*10)
		centers = append(centers, []float64{cx, cy})
		for i := 0; i < perGroup; i++ {
			comps = append(comps, stats.Gaussian{
				Mean: []float64{cx + rng.NormFloat64()*0.3, cy + rng.NormFloat64()*0.3},
				Var:  []float64{0.1, 0.1},
			})
			weights = append(weights, 1)
		}
	}
	m, err := newMixture(weights, comps)
	if err != nil {
		t.Fatal(err)
	}
	return m, centers
}

// coarse is the model a mapping stands for: the hard refit of f under pi.
func coarse(t *testing.T, f *mixture, pi []int) *mixture {
	t.Helper()
	s := 0
	for _, j := range pi {
		s = max(s, j+1)
	}
	g, err := refit(f, s, hard(f, pi))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// nearCentres reports the coarse components with weight above minWeight
// that sit farther than 1.5 from every true centre, and counts the others.
func nearCentres(t *testing.T, g *mixture, centers [][]float64, minWeight float64) (live int) {
	t.Helper()
	for j, c := range g.comps {
		if g.weights[j] <= minWeight {
			continue
		}
		live++
		best := math.Inf(1)
		for _, ctr := range centers {
			best = math.Min(best, math.Hypot(c.Mean[0]-ctr[0], c.Mean[1]-ctr[1]))
		}
		if best > 1.5 {
			t.Errorf("coarse component %d at %v far from all centres", j, c.Mean)
		}
	}
	return live
}

func TestReduceBasics(t *testing.T) {
	fine, centers := buildFine(t, 3, 20, 1)
	pi, err := reduce(fine, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pi) != fine.len() {
		t.Fatalf("pi length %d", len(pi))
	}
	g := coarse(t, fine, pi)
	if g.len() != 3 {
		t.Fatalf("reduced to %d components, want 3", g.len())
	}
	// Every coarse component sits near one true centre.
	nearCentres(t, g, centers, 0)
	// Weights normalised.
	var sum float64
	for _, w := range g.weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum %v", sum)
	}
}

func TestReducePiConsistent(t *testing.T) {
	fine, _ := buildFine(t, 4, 10, 2)
	pi, err := reduce(fine, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range pi {
		if j < 0 || j >= 4 {
			t.Fatalf("pi[%d] = %d out of range", i, j)
		}
	}
	// Components of one tight group map to the same coarse component.
	for g := 0; g < 4; g++ {
		first := pi[g*10]
		for i := 1; i < 10; i++ {
			if pi[g*10+i] != first {
				t.Fatalf("group %d split across coarse components", g)
			}
		}
	}
}

// The regroup/refit loop must not end farther from f than the z-curve
// mapping it starts from.
func TestReduceDistanceImproves(t *testing.T) {
	fine, _ := buildFine(t, 5, 12, 3)
	pi, err := reduce(fine, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	start := distance(fine, coarse(t, fine, initialMapping(fine, 5, 12)))
	if end := distance(fine, coarse(t, fine, pi)); end > start+1e-9 {
		t.Errorf("reduction worsened distance: %v → %v", start, end)
	}
}

func TestReduceNoOpWhenTargetLarge(t *testing.T) {
	fine, _ := buildFine(t, 2, 5, 4)
	pi, err := reduce(fine, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range pi {
		if i != j {
			t.Fatalf("expected identity reduction, got pi = %v", pi)
		}
	}
	if _, err := reduce(fine, 0, 1); err == nil {
		t.Errorf("s=0 accepted")
	}
}

func TestMergeGaussiansMoments(t *testing.T) {
	a := stats.Gaussian{Mean: []float64{0}, Var: []float64{1}}
	b := stats.Gaussian{Mean: []float64{4}, Var: []float64{1}}
	w, g := mergeGaussians(1, a, 1, b)
	if w != 2 {
		t.Fatalf("merged weight %v", w)
	}
	if math.Abs(g.Mean[0]-2) > 1e-12 {
		t.Errorf("merged mean %v, want 2", g.Mean[0])
	}
	// Var = E[var] + Var[means] = 1 + 4.
	if math.Abs(g.Var[0]-5) > 1e-12 {
		t.Errorf("merged variance %v, want 5", g.Var[0])
	}
}

func TestVirtualSampleReduces(t *testing.T) {
	fine, centers := buildFine(t, 3, 15, 5)
	pi, err := virtualSample(fine, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := coarse(t, fine, pi)
	if g.len() != 3 {
		t.Fatalf("got %d components", g.len())
	}
	if live := nearCentres(t, g, centers, 0.05); live < 3 {
		t.Errorf("only %d live components", live)
	}
	if _, err := virtualSample(fine, 0, 0); err == nil {
		t.Errorf("s=0 accepted")
	}
	// Identity case.
	pi, err = virtualSample(fine, fine.len()+5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if coarse(t, fine, pi).len() != fine.len() {
		t.Errorf("identity reduction failed")
	}
}

func TestGoldbergerVsVirtualSampleDiffer(t *testing.T) {
	// The two reducers are different algorithms; on an asymmetric input
	// they should generally produce different coarse models. This guards
	// against one accidentally delegating to the other.
	rng := rand.New(rand.NewSource(9))
	var weights []float64
	var comps []stats.Gaussian
	for i := 0; i < 40; i++ {
		comps = append(comps, stats.Gaussian{
			Mean: []float64{rng.Float64() * 10, rng.Float64() * 10},
			Var:  []float64{0.05 + rng.Float64(), 0.05 + rng.Float64()},
		})
		weights = append(weights, 0.5+rng.Float64())
	}
	fine, err := newMixture(weights, comps)
	if err != nil {
		t.Fatal(err)
	}
	// The hardened mappings may coincide at one target size; across
	// several they must not.
	for s := 3; s <= 8; s++ {
		gp, err := reduce(fine, s, (fine.len()+s-1)/s)
		if err != nil {
			t.Fatal(err)
		}
		vp, err := virtualSample(fine, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range gp {
			if gp[i] != vp[i] {
				return
			}
		}
	}
	t.Errorf("Goldberger and VirtualSample produced identical mappings on asymmetric input")
}
