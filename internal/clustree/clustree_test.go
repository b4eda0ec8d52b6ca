package clustree

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bayestree/internal/stats"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(3).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{Dim: 0, MaxFanout: 4},
		{Dim: 2, MaxFanout: 1},
		{Dim: 2, MaxFanout: 4, Lambda: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	tree, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert([]float64{1}, 0, -1); err == nil {
		t.Errorf("wrong dim accepted")
	}
	if err := tree.Insert([]float64{0.5, 0.5}, 5, -1); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert([]float64{0.5, 0.5}, 4, -1); err == nil {
		t.Errorf("time going backwards accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := tree.Insert([]float64{0.5, bad}, 6, -1); err == nil {
			t.Errorf("coordinate %v accepted", bad)
		}
	}
	if tree.Inserts() != 1 || tree.Now() != 5 {
		t.Errorf("rejected inserts counted: %d inserts, now %v", tree.Inserts(), tree.Now())
	}
}

// Without decay, the total weight in the tree equals the insert count —
// mass conservation through merges, splits, parking and hitchhiking.
func TestWeightConservationNoDecay(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Lambda = 0
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		budget := -1
		switch i % 5 {
		case 0:
			budget = 0 // park at the root's entries
		case 1:
			budget = 1
		}
		if err := tree.Insert(x, float64(i), budget); err != nil {
			t.Fatal(err)
		}
	}
	if got := tree.Weight(); math.Abs(got-3000) > 1e-6 {
		t.Fatalf("total weight %v, want 3000", got)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if tree.Parked() == 0 {
		t.Errorf("expected some parked insertions")
	}
}

// Decay: inserting one point and waiting 1/λ time units must halve its
// weight.
func TestDecayHalvesWeight(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Lambda = 0.1
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert([]float64{0.5}, 0, -1); err != nil {
		t.Fatal(err)
	}
	// Advance time by inserting a far-away point at t = 10 = 1/λ.
	if err := tree.Insert([]float64{0.9}, 10, -1); err != nil {
		t.Fatal(err)
	}
	mcs := tree.MicroClusters(0)
	var w05 float64
	for _, m := range mcs {
		if math.Abs(m.Mean[0]-0.5) < 0.05 {
			w05 = m.Weight
		}
	}
	if math.Abs(w05-0.5) > 1e-9 {
		t.Errorf("decayed weight %v, want 0.5", w05)
	}
}

// Parked mass must eventually reach leaf level via hitchhiking.
func TestHitchhikerDelivery(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Lambda = 0
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// Grow a multi-level tree first.
	ts := 0.0
	for i := 0; i < 500; i++ {
		ts++
		if err := tree.Insert([]float64{rng.Float64(), rng.Float64()}, ts, -1); err != nil {
			t.Fatal(err)
		}
	}
	// Park a batch near one corner with zero budget.
	for i := 0; i < 50; i++ {
		ts++
		if err := tree.Insert([]float64{0.05 + 0.01*rng.Float64(), 0.05}, ts, 0); err != nil {
			t.Fatal(err)
		}
	}
	parkedBefore := bufferMass(tree)
	if parkedBefore == 0 {
		t.Fatalf("nothing parked")
	}
	// Full-budget inserts into the same region pick the mass up.
	for i := 0; i < 200; i++ {
		ts++
		if err := tree.Insert([]float64{0.05 + 0.01*rng.Float64(), 0.05}, ts, -1); err != nil {
			t.Fatal(err)
		}
	}
	parkedAfter := bufferMass(tree)
	if parkedAfter >= parkedBefore {
		t.Errorf("hitchhiking did not drain buffers: %v → %v", parkedBefore, parkedAfter)
	}
	// Mass conservation still holds.
	if got := tree.Weight(); math.Abs(got-750) > 1e-6 {
		t.Errorf("total weight %v, want 750", got)
	}
}

func bufferMass(t *Tree) float64 {
	var total float64
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			total += e.buffer.N
			if !n.leaf {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	return total
}

// Self-adaptation: under pure zero-budget pressure after warm-up, no
// further splits occur (objects park instead).
func TestSelfAdaptationNoSplitsUnderPressure(t *testing.T) {
	cfg := DefaultConfig(2)
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ts := 0.0
	for i := 0; i < 300; i++ {
		ts++
		if err := tree.Insert([]float64{rng.Float64(), rng.Float64()}, ts, -1); err != nil {
			t.Fatal(err)
		}
	}
	splitsBefore := tree.Splits()
	for i := 0; i < 300; i++ {
		ts++
		if err := tree.Insert([]float64{rng.Float64(), rng.Float64()}, ts, 0); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Splits() != splitsBefore {
		t.Errorf("splits occurred under zero budget: %d → %d", splitsBefore, tree.Splits())
	}
}

// Three well-separated sources must yield three macro clusters.
func TestMacroClustersRecoverSources(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Lambda = 0.001
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	centers := [][]float64{{0.15, 0.15}, {0.85, 0.15}, {0.5, 0.85}}
	for i := 0; i < 6000; i++ {
		c := centers[rng.Intn(3)]
		x := []float64{
			clamp01(c[0] + rng.NormFloat64()*0.04),
			clamp01(c[1] + rng.NormFloat64()*0.04),
		}
		if err := tree.Insert(x, float64(i), -1); err != nil {
			t.Fatal(err)
		}
	}
	mcs := tree.MicroClusters(1)
	macros, _ := MacroClusters(mcs, MacroOptions{Eps: 0.15, MinWeight: 3})
	if len(macros) != 3 {
		t.Fatalf("found %d macro clusters, want 3", len(macros))
	}
	// Each recovered cluster sits near one source.
	for _, m := range macros {
		best := math.Inf(1)
		for _, c := range centers {
			best = math.Min(best, math.Hypot(m.Mean[0]-c[0], m.Mean[1]-c[1]))
		}
		if best > 0.1 {
			t.Errorf("macro cluster at %v far from all sources", m.Mean)
		}
	}
}

func TestMacroClustersEdgeCases(t *testing.T) {
	if m, n := MacroClusters(nil, MacroOptions{}); m != nil || n != nil {
		t.Errorf("empty input should yield nothing")
	}
	// All-light micro-clusters become noise.
	mcs := []MicroCluster{
		{Weight: 0.1, Mean: []float64{0, 0}},
		{Weight: 0.1, Mean: []float64{1, 1}},
	}
	macros, noise := MacroClusters(mcs, MacroOptions{Eps: 0.5, MinWeight: 5})
	if len(macros) != 0 || len(noise) != 2 {
		t.Errorf("light clusters: %d macros, %d noise", len(macros), len(noise))
	}
}

// Evolving stream: after the source moves and decay forgets, the macro
// clustering must follow the new location (the paper's "up-to-date view").
func TestDriftTracking(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Lambda = 0.01
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	// Phase 1: source at (0.2, 0.2).
	ts := 0.0
	for i := 0; i < 2000; i++ {
		ts++
		x := []float64{clamp01(0.2 + rng.NormFloat64()*0.03), clamp01(0.2 + rng.NormFloat64()*0.03)}
		if err := tree.Insert(x, ts, -1); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 2: source jumps to (0.8, 0.8) and enough time passes for the
	// old mass to fade.
	for i := 0; i < 2000; i++ {
		ts++
		x := []float64{clamp01(0.8 + rng.NormFloat64()*0.03), clamp01(0.8 + rng.NormFloat64()*0.03)}
		if err := tree.Insert(x, ts, -1); err != nil {
			t.Fatal(err)
		}
	}
	mcs := tree.MicroClusters(1)
	macros, _ := MacroClusters(mcs, MacroOptions{Eps: 0.2, MinWeight: 3})
	if len(macros) == 0 {
		t.Fatal("no macro clusters")
	}
	// The heaviest cluster must be at the new location.
	heaviest := macros[0]
	for _, m := range macros[1:] {
		if m.Weight > heaviest.Weight {
			heaviest = m
		}
	}
	if math.Hypot(heaviest.Mean[0]-0.8, heaviest.Mean[1]-0.8) > 0.1 {
		t.Errorf("heaviest cluster at %v, want near (0.8, 0.8)", heaviest.Mean)
	}
}

func TestMicroClusterFiltering(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Lambda = 0
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tree.Insert([]float64{0.5}, float64(i), -1); err != nil {
			t.Fatal(err)
		}
	}
	all := tree.MicroClusters(0)
	heavy := tree.MicroClusters(1000)
	if len(all) == 0 {
		t.Fatalf("no micro-clusters")
	}
	if len(heavy) != 0 {
		t.Errorf("weight filter ignored")
	}
}

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }

// TestSqDistToMeanBits: the distance a descent compares entries by is
// sqDist(cf.Mean(), x) to the bit — trees, snapshots and the failover
// digit-identity tests rest on it — for decayed, single-object, huge,
// tiny and empty features alike.
func TestSqDistToMeanBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20000; trial++ {
		dim := 1 + rng.Intn(6)
		cf := stats.NewCF(dim)
		x := make([]float64, dim)
		for n := rng.Intn(4); n >= 0; n-- {
			for i := range x {
				x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			cf.Add(x)
		}
		switch trial % 4 {
		case 1:
			cf.Scale(math.Exp2(-rng.Float64() * 40))
		case 2:
			cf.Scale(1 / 3.0)
		case 3:
			cf.N = -cf.N * float64(rng.Intn(2)) // empty: zero or negative mass, sums left behind
		}
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got, want := sqDistToMean(&cf, x), sqDist(cf.Mean(), x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: sqDistToMean %v (%x), sqDist(Mean) %v (%x) for %+v to %v",
				trial, got, math.Float64bits(got), want, math.Float64bits(want), cf, x)
		}
	}
}

// TestInsertAllocs: an insert that splits nothing and opens no
// micro-cluster allocates nothing — its descent path and the mass it
// carries are the tree's scratch, and no mean is built per entry passed.
func TestInsertAllocs(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Lambda = 0.001
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	centres := [][]float64{{0.2, 0.2, 0.3, 0.7}, {0.8, 0.3, 0.6, 0.2}, {0.5, 0.8, 0.1, 0.5}}
	ts := 0.0
	insert := func() {
		c := centres[rng.Intn(len(centres))]
		x := [4]float64{c[0] + 0.02*rng.NormFloat64(), c[1] + 0.02*rng.NormFloat64(), c[2] + 0.02*rng.NormFloat64(), c[3] + 0.02*rng.NormFloat64()}
		ts++
		if err := tree.Insert(x[:], ts, 8); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		insert()
	}
	// Splits are rare in the warm tree and cost more; the median of
	// several short runs is the split-free insert.
	runs := make([]float64, 9)
	for i := range runs {
		runs[i] = testing.AllocsPerRun(50, insert)
	}
	sort.Float64s(runs)
	if got := runs[len(runs)/2]; got > 0 {
		t.Errorf("a split-free insert allocates %.1f times (runs %v), want 0", got, runs)
	} else {
		t.Logf("%.1f allocations per split-free insert (runs %v)", got, runs)
	}
}

// microClustersOracle is the export AppendMicroClusters replaced: a
// clone of each leaf entry's CF, merged with its buffer, and a fresh
// mean — the arithmetic the export must keep to the bit.
func microClustersOracle(t *Tree, minWeight float64) []MicroCluster {
	var out []MicroCluster
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			t.decay(e, t.now)
			if !n.leaf {
				walk(e.child)
				continue
			}
			cf := e.cf.Clone()
			cf.Merge(e.buffer)
			if cf.N >= minWeight {
				out = append(out, MicroCluster{CF: cf, Weight: cf.N, Mean: cf.Mean(), Radius: cf.Radius()})
			}
		}
	}
	walk(t.root)
	return out
}

// TestAppendMicroClustersReuses: the export into a used buffer — spare
// elements of another dimension, some too short — writes what the
// oracle builds, keeps what dst held, lends its spare vectors, and
// allocates nothing once the buffer has held a set as large.
func TestAppendMicroClustersReuses(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Lambda = 0.002
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	for i := 1; i <= 4000; i++ {
		x := []float64{rng.Float64(), rng.Float64(), 0.5 + 0.01*rng.NormFloat64()}
		if err := tree.Insert(x, float64(i), 1+rng.Intn(4)); err != nil { // small budgets park objects
			t.Fatal(err)
		}
	}
	if tree.Parked() == 0 {
		t.Fatal("no object parked: the buffers are not exercised")
	}
	for _, floor := range []float64{0, 0.5, 2} {
		want := microClustersOracle(tree, floor)
		if len(want) == 0 {
			t.Fatalf("floor %v: no micro-cluster", floor)
		}
		all := make([]MicroCluster, len(want)+1)
		for i := range all {
			d := 1 + i%5 // spare vectors shorter and longer than the tree's
			all[i] = MicroCluster{CF: stats.NewCF(d), Mean: make([]float64, d), Weight: -1}
		}
		dst, first := all[:1], all[0]
		got := tree.AppendMicroClusters(dst, floor)
		if !reflect.DeepEqual(got[0], first) || !reflect.DeepEqual(got[1:], want) {
			t.Fatalf("floor %v: AppendMicroClusters differs from the oracle", floor)
		}
		if &got[0] != &dst[0] || &got[4].Mean[0] != &all[4].Mean[0] {
			t.Fatalf("floor %v: the spare capacity or its vectors were not reused", floor)
		}
		if n := testing.AllocsPerRun(10, func() { got = tree.AppendMicroClusters(got[:0], floor) }); n != 0 {
			t.Errorf("floor %v: a warm export allocates %.0f times, want 0", floor, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("floor %v: a warm export differs from the oracle", floor)
		}
	}
}
