package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"bayestree/internal/stats"
)

func smallConfig(dim int) Config {
	return Config{
		Dim:       dim,
		MinFanout: 2, MaxFanout: 5,
		MinLeaf: 2, MaxLeaf: 6,
	}
}

// rstarTree builds a one-class tree of label 0 over pts by R*
// insertion (BuildRStar).
func rstarTree(tb testing.TB, cfg Config, pts [][]float64) *MultiTree {
	tb.Helper()
	tree, err := BuildRStar(cfg, 0, pts)
	if err != nil {
		tb.Fatal(err)
	}
	return tree
}

// emptyClassTree is an empty one-class tree of label 0.
func emptyClassTree(tb testing.TB, cfg Config) *MultiTree {
	tb.Helper()
	tree, err := NewMultiTree(cfg, []int{0}, MultiOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return tree
}

// rootEntry is the summary of the whole tree: the level-0 model.
func rootEntry(t *MultiTree) MultiEntry { return t.summarize(t.root) }

func randPoints(rng *rand.Rand, n, d int) [][]float64 {
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

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(8).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{Dim: 0, MinFanout: 2, MaxFanout: 5, MinLeaf: 2, MaxLeaf: 6},
		{Dim: 2, MinFanout: 3, MaxFanout: 5, MinLeaf: 2, MaxLeaf: 6},
		{Dim: 2, MinFanout: 2, MaxFanout: 5, MinLeaf: 4, MaxLeaf: 6},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaultConfigPageDerivation(t *testing.T) {
	// For d=16 an entry is (4·16+2)·8 = 528 bytes → M = 3, clamped to 4.
	cfg := DefaultConfig(16)
	if cfg.MaxFanout != 4 {
		t.Errorf("MaxFanout(16) = %d, want 4", cfg.MaxFanout)
	}
	if cfg.MaxLeaf != 16 {
		t.Errorf("MaxLeaf(16) = %d, want 16", cfg.MaxLeaf)
	}
	// Low dimensions hit the clamp at 32/64.
	cfg = DefaultConfig(1)
	if cfg.MaxFanout != 32 || cfg.MaxLeaf != 64 {
		t.Errorf("clamps wrong: %+v", cfg)
	}
}

func TestInsertMaintainsInvariants(t *testing.T) {
	tree := emptyClassTree(t, smallConfig(3))
	rng := rand.New(rand.NewSource(1))
	for i, p := range randPoints(rng, 500, 3) {
		if err := tree.insertRStar(p); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if i%37 == 0 {
			if err := tree.Validate(); err != nil {
				t.Fatalf("invariants after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("final: %v", err)
	}
	if tree.Len() != 500 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if !tree.Balanced() {
		t.Fatalf("iterative tree must be balanced")
	}
}

func TestInsertRejectsBadInput(t *testing.T) {
	for _, bad := range [][]float64{{1}, {1, math.NaN()}, {1, math.Inf(1)}} {
		if _, err := BuildRStar(smallConfig(2), 0, [][]float64{bad}); err == nil {
			t.Errorf("R* build accepted %v", bad)
		}
		if err := emptyClassTree(t, smallConfig(2)).Insert(bad, 0); err == nil {
			t.Errorf("insert accepted %v", bad)
		}
	}
}

func TestInsertCopiesInput(t *testing.T) {
	p := []float64{0.5, 0.5}
	tree := rstarTree(t, smallConfig(2), [][]float64{p})
	learned := emptyClassTree(t, smallConfig(2))
	if err := learned.Insert(p, 0); err != nil {
		t.Fatal(err)
	}
	p[0] = 99
	for _, tr := range []*MultiTree{tree, learned} {
		if e := rootEntry(tr); e.CFs[0].Mean()[0] == 99 {
			t.Errorf("tree aliases caller's slice")
		}
	}
}

func TestRootEntrySummarisesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 300, 2)
	var sum0 float64
	for _, p := range pts {
		sum0 += p[0]
	}
	tree := rstarTree(t, smallConfig(2), pts)
	e := rootEntry(tree)
	if e.CFs[0].N != 300 {
		t.Errorf("root CF.N = %v", e.CFs[0].N)
	}
	if math.Abs(e.CFs[0].LS[0]-sum0) > 1e-6 {
		t.Errorf("root LS[0] = %v, want %v", e.CFs[0].LS[0], sum0)
	}
	// MBR covers all points.
	for _, p := range pts {
		if !e.Rect.ContainsPoint(p) {
			t.Fatalf("root MBR misses point %v", p)
		}
	}
}

func TestBandwidthShrinksWithN(t *testing.T) {
	mk := func(n int) *MultiTree {
		return rstarTree(t, smallConfig(2), randPoints(rand.New(rand.NewSource(3)), n, 2))
	}
	small := mk(50).queryConsts().bw[0]
	large := mk(5000).queryConsts().bw[0]
	if large[0] >= small[0] {
		t.Errorf("bandwidth did not shrink: %v vs %v", small[0], large[0])
	}
}

func TestStatsShape(t *testing.T) {
	tree := rstarTree(t, smallConfig(2), randPoints(rand.New(rand.NewSource(4)), 400, 2))
	s := tree.Stats()
	if s.Observations != 400 {
		t.Errorf("Observations = %d", s.Observations)
	}
	if s.Height < 3 {
		t.Errorf("height %d suspiciously small for 400 points with L=6", s.Height)
	}
	if s.Leaves == 0 || s.AvgLeafOcc < 2 || s.AvgLeafOcc > 6 {
		t.Errorf("leaf occupancy out of bounds: %+v", s)
	}
	if s.AvgFanout < 2 || s.AvgFanout > 5 {
		t.Errorf("fanout out of bounds: %+v", s)
	}
	if s.Nodes != tree.CountNodes() || s.MinLeafDepth != s.Height-1 {
		t.Errorf("node count or leaf depth inconsistent: %+v, %d nodes", s, tree.CountNodes())
	}
}

func TestDuplicatePointsTree(t *testing.T) {
	pts := make([][]float64, 100)
	for i := range pts {
		pts[i] = []float64{0.3, 0.3}
	}
	tree := rstarTree(t, smallConfig(2), pts)
	if err := tree.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	g := rootEntry(tree).CFs[0].Gaussian()
	if math.IsNaN(g.Var[0]) || g.Var[0] <= 0 {
		t.Errorf("degenerate variance: %v", g.Var)
	}
}

// Entries hold exact subtree summaries even after heavy mutation — the
// foundation of Definition 1 (checked densely here, beyond Validate's
// spot use elsewhere).
func TestCFExactnessUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([][]float64, 2000)
	for i := range pts {
		p := make([]float64, 4)
		for k := range p {
			// Clustered inserts to force deep, uneven structure.
			p[k] = math.Mod(rng.NormFloat64()*0.1+float64(i%7)*0.15, 1)
			if p[k] < 0 {
				p[k] += 1
			}
		}
		pts[i] = p
	}
	tree := rstarTree(t, smallConfig(4), pts)
	if err := tree.Validate(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// Validate keeps every check of an entry: a planted change to one inner
// entry's linear sum of 1e-3 — to a class's CF or to the pooled Total —
// is reported, as are a class with mass but no vectors, a nil child, an
// inverted rectangle and unequal leaf depths in a tree built balanced.
func TestValidateCatchesPlantedDamage(t *testing.T) {
	xs, ys := twoClassData(300, 61)
	// held is the entry's first class with mass (an entry over a leaf of
	// these separated classes may hold only one).
	held := func(e *MultiEntry) *stats.CF {
		for c := range e.CFs {
			if e.CFs[c].N > 0 {
				return &e.CFs[c]
			}
		}
		panic("an entry without mass")
	}
	for _, damage := range []struct {
		name  string
		plant func(e *MultiEntry)
	}{
		{"class LS", func(e *MultiEntry) { held(e).LS[0] += 1e-3 }},
		{"pooled LS", func(e *MultiEntry) { e.Total.LS[1] += 1e-3 }},
		{"class SS", func(e *MultiEntry) { held(e).SS[0] += 1 }},
		{"infinite class SS", func(e *MultiEntry) { held(e).SS[1] = math.Inf(1) }},
		{"class without vectors", func(e *MultiEntry) { cf := held(e); *cf = stats.CF{N: cf.N} }},
		{"nil child", func(e *MultiEntry) { e.Child = nil }},
		{"inverted rect", func(e *MultiEntry) { e.Rect.Lo[0], e.Rect.Hi[0] = e.Rect.Hi[0]+1, e.Rect.Lo[0] }},
	} {
		mt := buildMultiTree(t, xs, ys, MultiOptions{})
		if err := mt.Validate(); err != nil {
			t.Fatal(err)
		}
		// An entry over a leaf: few points, so a tolerance scaled by the
		// count stays far below the planted change.
		n := mt.root
		for !n.entries[0].Child.leaf {
			n = n.entries[0].Child
		}
		damage.plant(&n.entries[0])
		if err := mt.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a damaged entry", damage.name)
		}
	}
	// A stored coordinate whose square overflows: every entry is the sum
	// of its subtree, and the sums along its path are infinite.
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	leaf := mt.root
	for !leaf.leaf {
		leaf = leaf.entries[0].Child
	}
	leaf.points[0].X[0] = 1e200
	mt.deriveEntries(mt.root)
	if err := mt.Validate(); err == nil {
		t.Error("Validate accepted a tree whose features are infinite")
	}
	b, err := NewBuilder(smallConfig(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := b.Leaf([][]float64{{0, 0}, {0, 1}})
	l2, _ := b.Leaf([][]float64{{1, 0}, {1, 1}})
	l3, _ := b.Leaf([][]float64{{2, 0}, {2, 1}})
	inner, _ := b.Inner([]*MultiNode{l1, l2})
	root, _ := b.Inner([]*MultiNode{inner, l3})
	tree, err := b.Finish(root, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("unbalanced tree built unbalanced: %v", err)
	}
	tree.balanced = true
	if err := tree.Validate(); err == nil || !strings.Contains(err.Error(), "depths") {
		t.Errorf("Validate says %v of unequal leaf depths in a tree declared balanced", err)
	}
}
