package bulkload

import (
	"math"
	"math/rand"
	"testing"

	"bayestree/internal/core"
)

func testConfig(dim int) core.Config {
	return core.Config{
		Dim:       dim,
		MinFanout: 2, MaxFanout: 5,
		MinLeaf: 2, MaxLeaf: 8,
	}
}

func randomPoints(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, d)
		for k := range p {
			p[k] = rng.Float64()
		}
		out[i] = p
	}
	return out
}

// fullDensity is the fully refined log density of x under a one-class
// tree: its one class's score, whose prior is log 1 = 0.
func fullDensity(t *testing.T, tree *core.MultiTree, x []float64) float64 {
	t.Helper()
	q, err := tree.NewQuery(x, core.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for q.Step() {
	}
	return q.Scores()[0]
}

// collectPoints gathers all observations stored in a tree, for membership
// checks against the input.
func collectPoints(tree *core.MultiTree) [][]float64 {
	var out [][]float64
	var walk func(n *core.MultiNode)
	walk = func(n *core.MultiNode) {
		if n.IsLeaf() {
			for _, p := range n.Points() {
				out = append(out, p.X)
			}
			return
		}
		for _, e := range n.Entries() {
			walk(e.Child)
		}
	}
	walk(tree.Root())
	return out
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		l, ok := ByName(name)
		if !ok {
			t.Errorf("registered name %q not resolvable", name)
			continue
		}
		if l.Name() != name {
			t.Errorf("loader %q reports name %q", name, l.Name())
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Errorf("unknown loader resolved")
	}
	if _, ok := ByName("iterativ"); !ok {
		t.Errorf("paper spelling alias missing")
	}
	if len(All()) != len(Names()) {
		t.Errorf("All/Names mismatch")
	}
}

// Every loader must produce a structurally valid tree containing exactly
// the input observations — the fundamental contract.
func TestAllLoadersPreserveData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points := randomPoints(rng, 333, 3)
	// Multiset of inputs keyed by the first coordinate (floats are unique
	// with probability 1).
	want := map[float64]int{}
	for _, p := range points {
		want[p[0]]++
	}
	for _, loader := range All() {
		tree, err := loader.Build(points, testConfig(3), 0)
		if err != nil {
			t.Fatalf("%s: %v", loader.Name(), err)
		}
		if tree.Len() != len(points) {
			t.Fatalf("%s: Len = %d, want %d", loader.Name(), tree.Len(), len(points))
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: invariants: %v", loader.Name(), err)
		}
		got := map[float64]int{}
		for _, p := range collectPoints(tree) {
			got[p[0]]++
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("%s: observation %v appears %d times, want %d", loader.Name(), k, got[k], n)
			}
		}
	}
}

// All loaders must handle edge-case population sizes: below leaf capacity,
// just above it, and around fanout boundaries.
func TestLoadersEdgeSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 7, 8, 9, 16, 17, 40, 41, 65} {
		points := randomPoints(rng, n, 2)
		for _, loader := range All() {
			tree, err := loader.Build(points, testConfig(2), 0)
			if err != nil {
				t.Fatalf("%s n=%d: %v", loader.Name(), n, err)
			}
			if tree.Len() != n {
				t.Fatalf("%s n=%d: Len = %d", loader.Name(), n, tree.Len())
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("%s n=%d: %v", loader.Name(), n, err)
			}
		}
	}
}

func TestLoadersRejectBadInput(t *testing.T) {
	for _, loader := range All() {
		if _, err := loader.Build(nil, testConfig(2), 0); err == nil {
			t.Errorf("%s: empty input accepted", loader.Name())
		}
		if _, err := loader.Build([][]float64{{1}}, testConfig(2), 0); err == nil {
			t.Errorf("%s: wrong-dim input accepted", loader.Name())
		}
		bad := testConfig(2)
		bad.Dim = 0
		if _, err := loader.Build([][]float64{{1, 2}}, bad, 0); err == nil {
			t.Errorf("%s: invalid config accepted", loader.Name())
		}
	}
}

func TestLoadersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points := randomPoints(rng, 200, 2)
	for _, loader := range All() {
		t1, err := loader.Build(points, testConfig(2), 0)
		if err != nil {
			t.Fatalf("%s: %v", loader.Name(), err)
		}
		t2, err := loader.Build(points, testConfig(2), 0)
		if err != nil {
			t.Fatalf("%s: %v", loader.Name(), err)
		}
		s1, s2 := t1.Stats(), t2.Stats()
		if s1 != s2 {
			t.Errorf("%s: nondeterministic shape: %+v vs %+v", loader.Name(), s1, s2)
		}
		// Density queries agree exactly.
		x := []float64{0.5, 0.5}
		if math.Abs(fullDensity(t, t1, x)-fullDensity(t, t2, x)) > 1e-12 {
			t.Errorf("%s: nondeterministic densities", loader.Name())
		}
	}
}

// Duplicate-heavy data (clusters of identical points) must not break any
// loader — degenerate variances and zero-extent MBRs are common in
// discretised sensor data.
func TestLoadersDuplicateHeavy(t *testing.T) {
	var points [][]float64
	for i := 0; i < 100; i++ {
		points = append(points, []float64{float64(i % 3), float64(i % 2)})
	}
	for _, loader := range All() {
		tree, err := loader.Build(points, testConfig(2), 0)
		if err != nil {
			t.Fatalf("%s: %v", loader.Name(), err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: %v", loader.Name(), err)
		}
	}
}

func TestCurveLoadersAreBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	points := randomPoints(rng, 300, 2)
	for _, name := range []string{"hilbert", "zcurve", "str", "goldberger", "vsample", "iterative"} {
		loader, _ := ByName(name)
		tree, err := loader.Build(points, testConfig(2), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tree.Balanced() {
			t.Errorf("%s: tree not balanced", name)
		}
	}
}

func TestEMTopDownMayBeUnbalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Strongly uneven cluster sizes make unbalance likely; the contract
	// is only that the tree is valid and flagged as not balance-checked.
	var points [][]float64
	for i := 0; i < 400; i++ {
		points = append(points, []float64{rng.NormFloat64() * 0.01, rng.NormFloat64() * 0.01})
	}
	for i := 0; i < 20; i++ {
		points = append(points, []float64{5 + rng.NormFloat64()*0.01, 5 + rng.NormFloat64()*0.01})
	}
	tree, err := mustLoader("emtopdown").Build(points, testConfig(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Balanced() {
		t.Errorf("EMTopDown should not claim balance")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestChunkSizes(t *testing.T) {
	cases := []struct {
		n, min, max, target int
	}{
		{100, 2, 8, 6}, {7, 2, 8, 6}, {9, 2, 8, 6}, {17, 4, 16, 12},
		{33, 2, 5, 4}, {1000, 8, 32, 24},
	}
	for _, c := range cases {
		sizes := chunkSizes(c.n, c.min, c.max, c.target)
		total := 0
		for _, s := range sizes {
			total += s
			if len(sizes) > 1 && (s < c.min || s > c.max) {
				t.Errorf("chunkSizes(%+v): illegal size %d in %v", c, s, sizes)
			}
		}
		if total != c.n {
			t.Errorf("chunkSizes(%+v): total %d != n", c, total)
		}
	}
}

// The Hilbert loader should produce spatially tighter leaves than random
// insertion order would suggest: leaf MBR areas must be small relative to
// the data extent (a sanity check of the packing logic, not a benchmark).
func TestHilbertPackingLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	points := randomPoints(rng, 512, 2)
	tree, err := mustLoader("hilbert").Build(points, testConfig(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	var leafArea float64
	var leaves int
	var walk func(n *core.MultiNode)
	walk = func(n *core.MultiNode) {
		if n.IsLeaf() {
			leaves++
			lo := []float64{math.Inf(1), math.Inf(1)}
			hi := []float64{math.Inf(-1), math.Inf(-1)}
			for _, p := range n.Points() {
				for k := 0; k < 2; k++ {
					lo[k] = math.Min(lo[k], p.X[k])
					hi[k] = math.Max(hi[k], p.X[k])
				}
			}
			leafArea += (hi[0] - lo[0]) * (hi[1] - lo[1])
			return
		}
		for _, e := range n.Entries() {
			walk(e.Child)
		}
	}
	walk(tree.Root())
	avg := leafArea / float64(leaves)
	// 512 points in 64 leaves over the unit square: an ideal tiling has
	// area 1/64 ≈ 0.016 per leaf; Hilbert should stay well under 5×.
	if avg > 0.08 {
		t.Errorf("average Hilbert leaf area %v too large", avg)
	}
}

func TestGoldbergerFanoutBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	points := randomPoints(rng, 600, 3)
	tree, err := mustLoader("goldberger").Build(points, testConfig(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Validate() already enforces bounds for balanced trees; double-check
	// the tree reports balanced so those checks were active.
	if !tree.Balanced() {
		t.Errorf("goldberger tree must be balanced")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func mustLoader(name string) Loader {
	l, ok := ByName(name)
	if !ok {
		panic("unknown loader " + name)
	}
	return l
}
