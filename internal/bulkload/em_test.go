package bulkload

import (
	"math"
	"math/rand"
	"testing"
)

// threeBlobs generates well-separated clusters with known membership.
func threeBlobs(n int, seed int64) (points [][]float64, truth []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	for i := 0; i < n; i++ {
		c := i % 3
		points = append(points, []float64{
			centers[c][0] + rng.NormFloat64()*0.5,
			centers[c][1] + rng.NormFloat64()*0.5,
		})
		truth = append(truth, c)
	}
	return points, truth
}

func TestFitValidation(t *testing.T) {
	if _, err := emFit(nil, 2, 1); err == nil {
		t.Errorf("empty input accepted")
	}
	if _, err := emFit([][]float64{{}}, 1, 1); err == nil {
		t.Errorf("zero-dim input accepted")
	}
	if _, err := emFit([][]float64{{1}}, 0, 1); err == nil {
		t.Errorf("K=0 accepted")
	}
}

func TestFitRecoversSeparatedClusters(t *testing.T) {
	points, truth := threeBlobs(300, 1)
	res, err := emFit(points, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.comps) != 3 {
		t.Fatalf("K = %d, want 3", len(res.comps))
	}
	// Assignment must be consistent with the truth up to relabeling:
	// within each true cluster, all points share one EM label.
	labelOf := map[int]int{}
	for i, a := range res.assign {
		c := truth[i]
		if prev, ok := labelOf[c]; ok {
			if prev != a {
				t.Fatalf("true cluster %d split across EM components", c)
			}
		} else {
			labelOf[c] = a
		}
	}
	if len(labelOf) != 3 {
		t.Fatalf("collapsed clusters: %v", labelOf)
	}
}

// The EM guarantee: log-likelihood never decreases across iterations.
func TestFitLogLikelihoodMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	points := make([][]float64, 400)
	for i := range points {
		points[i] = []float64{rng.NormFloat64(), rng.NormFloat64() * 2, rng.Float64()}
	}
	res, err := emFit(points, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.path); i++ {
		if res.path[i] < res.path[i-1]-1e-6*math.Abs(res.path[i-1]) {
			t.Fatalf("log-likelihood decreased at iter %d: %v → %v",
				i, res.path[i-1], res.path[i])
		}
	}
}

func TestFitDeterministic(t *testing.T) {
	points, _ := threeBlobs(150, 3)
	a, err := emFit(points, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := emFit(points, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.assign {
		if a.assign[i] != b.assign[i] {
			t.Fatalf("same seed, different assignment at %d", i)
		}
	}
	c, err := emFit(points, 3, 43)
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seed may or may not differ; only determinism is asserted
}

func TestFitWeightsNormalised(t *testing.T) {
	points, _ := threeBlobs(120, 4)
	res, err := emFit(points, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range res.weights {
		if w <= 0 {
			t.Errorf("non-positive surviving weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestFitKGreaterThanN(t *testing.T) {
	points := [][]float64{{0}, {1}, {2}}
	res, err := emFit(points, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.comps) > 3 {
		t.Errorf("more components than points: %d", len(res.comps))
	}
}

func TestFitIdenticalPoints(t *testing.T) {
	points := make([][]float64, 50)
	for i := range points {
		points[i] = []float64{3, 3}
	}
	res, err := emFit(points, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All mass should collapse into few (typically 1) components with
	// floored variance — and never NaN.
	for _, c := range res.comps {
		for k := range c.Mean {
			if math.IsNaN(c.Mean[k]) || math.IsNaN(c.Var[k]) || c.Var[k] <= 0 {
				t.Fatalf("degenerate component: %+v", c)
			}
		}
	}
}

func TestClustersPartition(t *testing.T) {
	points, _ := threeBlobs(90, 5)
	res, err := emFit(points, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(points))
	for _, cl := range res.clusters() {
		if len(cl) == 0 {
			t.Fatalf("empty cluster returned")
		}
		for _, idx := range cl {
			if seen[idx] {
				t.Fatalf("index %d in two clusters", idx)
			}
			seen[idx] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d unassigned", i)
		}
	}
}
