package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"bayestree/internal/kernels"
)

// These are the digit-identity property tests of the vectorized-descent
// contract (soa.go): a query served through the structure-of-arrays
// mirror must produce bitwise the same scores, at every step, as the
// pointer loop — across strategies, priorities, kernels, missing-value
// queries, randomized insert/decay/classify interleavings and the fused
// batch path. Run them under -race to also check the published mirror
// is safe for concurrent readers.

// pointerQuery is the suite's reference: a fresh query detached from
// the mirror, so it refines through the pointer loop. The root element
// NewQuery pushed carries both the node pointer and mirror index 0, so
// nothing else depends on the layout.
func pointerQuery(mt *MultiTree, x []float64, opts ClassifierOptions) (*MultiQuery, error) {
	q, err := mt.NewQuery(x, opts)
	if err == nil {
		q.soa, q.sweep = nil, nil
	}
	return q, err
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// compareMultiQuery runs x through the pointer loop and the SoA mirror
// in lockstep and fails on the first step whose scores differ in
// any bit. budget < 0 means until exhaustion.
func compareMultiQuery(t *testing.T, ctx string, mt *MultiTree, x []float64, opts ClassifierOptions, budget int) {
	t.Helper()
	qe, err := pointerQuery(mt, x, opts)
	if err != nil {
		t.Fatalf("%s: exact query: %v", ctx, err)
	}
	defer qe.Close()
	qs, err := mt.NewQuery(x, opts)
	if err != nil {
		t.Fatalf("%s: soa query: %v", ctx, err)
	}
	defer qs.Close()
	if qe.UsedSoA() {
		t.Fatalf("%s: reference query took the SoA path", ctx)
	}
	if !qs.UsedSoA() {
		t.Fatalf("%s: SoA query fell back to the pointer path", ctx)
	}
	for step := 0; budget < 0 || step <= budget; step++ {
		se, ss := qe.Scores(), qs.Scores()
		if !bitsEqual(se, ss) {
			t.Fatalf("%s: step %d: soa scores %v != exact %v", ctx, step, ss, se)
		}
		oke, oks := qe.Step(), qs.Step()
		if oke != oks {
			t.Fatalf("%s: step %d: exact Step=%v, soa Step=%v", ctx, step, oke, oks)
		}
		if qe.NodesRead() != qs.NodesRead() {
			t.Fatalf("%s: step %d: exact reads %d, soa reads %d", ctx, step, qe.NodesRead(), qs.NodesRead())
		}
		if !oke {
			break
		}
	}
	if qe.Predict() != qs.Predict() {
		t.Fatalf("%s: predictions differ: exact %d, soa %d", ctx, qe.Predict(), qs.Predict())
	}
}

func soaVariants() (strategies []Strategy, priorities []Priority) {
	return []Strategy{DescentGlobal, DescentBFT, DescentDFT},
		[]Priority{PriorityProbabilistic, PriorityGeometric}
}

func TestSoAEquivalenceMultiTree(t *testing.T) {
	strategies, priorities := soaVariants()
	for _, mo := range []MultiOptions{{}, {PooledVariance: true}, {EntropyPriority: true}} {
		xs, ys := twoClassData(400, 7)
		mt := buildMultiTree(t, xs, ys, mo)
		mt.RefreshSoA()
		queries, _ := twoClassData(12, 8)
		// Missing-value queries exercise the marginal (obs) sweeps.
		queries = append(queries, []float64{math.NaN(), 0.5}, []float64{0.3, math.NaN()})
		for _, strat := range strategies {
			for _, prio := range priorities {
				opts := ClassifierOptions{Strategy: strat, Priority: prio}
				for qi, x := range queries {
					budget := []int{0, 1, 7, 64, -1}[qi%5]
					ctx := "mo=" + map[bool]string{true: "pooled", false: "plain"}[mo.PooledVariance] +
						"/strat=" + strat.String() + "/prio=" + prio.String()
					compareMultiQuery(t, ctx, mt, x, opts, budget)
				}
			}
		}
	}
}

func TestSoAEquivalenceEpanechnikov(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Kernel = kernels.Epanechnikov{}
	xs, ys := twoClassData(300, 11)
	mt, err := NewMultiTree(cfg, []int{0, 1}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if err := mt.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	mt.RefreshSoA()
	queries, _ := twoClassData(8, 12)
	// Far-away queries land outside the Epanechnikov support, driving the
	// sweep's −Inf early-out.
	queries = append(queries, []float64{25, 25}, []float64{math.NaN(), 0.4})
	for _, x := range queries {
		compareMultiQuery(t, "epanechnikov", mt, x, ClassifierOptions{}, -1)
	}
}

// TestSoAEquivalenceUnderMutation is the randomized interleaving
// property: inserts (patch trigger), epoch advances and decay sweeps
// (structural triggers) interleaved with classifications, asserting at
// every point that (a) a stale mirror is never served — post-mutation
// queries fall back until RefreshSoA — and (b) a refreshed mirror is
// digit-identical to the pointer path.
func TestSoAEquivalenceUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mt, err := NewMultiTree(smallConfig(3), []int{0, 1, 2}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(k int) {
		for j := 0; j < k; j++ {
			x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			if err := mt.Insert(x, rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(120)
	mt.RefreshSoA()
	if err := mt.EnableDecay(DecayOptions{Lambda: 0.1, MinWeight: 1e-4}); err != nil {
		t.Fatal(err)
	}
	check := func(ctx string) {
		t.Helper()
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		compareMultiQuery(t, ctx, mt, x, ClassifierOptions{}, 1+rng.Intn(40))
	}
	for round := 0; round < 30; round++ {
		switch rng.Intn(3) {
		case 0:
			insert(1 + rng.Intn(5))
		case 1:
			mt.AdvanceEpoch(1)
		default:
			mt.AdvanceEpoch(1)
			mt.DecaySweep()
		}
		// A mutated tree must unpublish the mirror: queries fall back to
		// the pointer path rather than read stale flat state.
		q, err := mt.NewQuery([]float64{0, 0, 0}, ClassifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if q.UsedSoA() {
			t.Fatalf("round %d: query used a mirror that a mutation should have unpublished", round)
		}
		q.Close()
		mt.RefreshSoA()
		check("after refresh")
		if err := mt.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	rebuilds, patches, invalidations := mt.SoACounters()
	if rebuilds == 0 || invalidations == 0 {
		t.Fatalf("counters did not move: rebuilds=%d patches=%d invalidations=%d", rebuilds, patches, invalidations)
	}
	if patches == 0 {
		t.Logf("note: no in-place patches this seed (every refresh rebuilt)")
	}
}

// TestSoAPatchPath pins the in-place patch: split-free inserts into a
// stable structure must refresh via patch, not rebuild.
func TestSoAPatchPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mt, err := NewMultiTree(smallConfig(2), []int{0, 1}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 200; j++ {
		if err := mt.Insert([]float64{rng.Float64(), rng.Float64()}, j%2); err != nil {
			t.Fatal(err)
		}
	}
	mt.RefreshSoA()
	var patched bool
	for j := 0; j < 50; j++ {
		_, p0, _ := mt.SoACounters()
		if err := mt.Insert([]float64{rng.Float64(), rng.Float64()}, j%2); err != nil {
			t.Fatal(err)
		}
		mt.RefreshSoA()
		if _, p1, _ := mt.SoACounters(); p1 > p0 {
			patched = true
		}
		compareMultiQuery(t, "patched", mt, []float64{rng.Float64(), rng.Float64()}, ClassifierOptions{}, -1)
	}
	if !patched {
		t.Fatalf("no insert took the patch path in 50 split-prone rounds")
	}
}

// TestScoreBatchMatchesSolo: the lockstep batch equals solo queries
// bitwise on both paths — before RefreshSoA (pointer loop) and after
// (fused mirror sweeps).
func TestScoreBatchMatchesSolo(t *testing.T) {
	xs, ys := twoClassData(500, 5)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	queries, _ := twoClassData(40, 6)
	budgets := make([]int, len(queries))
	for i := range budgets {
		budgets[i] = []int{0, 3, 17, 80, -1}[i%5]
	}
	for _, mirror := range []bool{false, true} {
		if mirror {
			mt.RefreshSoA()
		}
		scores, reads, err := mt.ScoreBatch(queries, ClassifierOptions{}, budgets, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range queries {
			q, err := mt.NewQuery(x, ClassifierOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if q.UsedSoA() != mirror {
				t.Fatalf("mirror=%v: solo query UsedSoA=%v", mirror, q.UsedSoA())
			}
			for s := 0; budgets[i] < 0 || s < budgets[i]; s++ {
				if !q.Step() {
					break
				}
			}
			if !bitsEqual(scores[i], q.Scores()) {
				t.Fatalf("mirror=%v: item %d: batch scores %v != solo %v", mirror, i, scores[i], q.Scores())
			}
			if reads[i] != q.NodesRead() {
				t.Fatalf("mirror=%v: item %d: batch reads %d != solo %d", mirror, i, reads[i], q.NodesRead())
			}
			q.Close()
		}
	}
}

// slowGaussian is the Gaussian kernel stripped of kernels.Freezer (and
// with it kernels.Sweeper): a MultiTree over it can publish a mirror
// but no query can sweep its leaves.
type slowGaussian struct{}

func (slowGaussian) LogDensity(x, center, h []float64) float64 {
	return kernels.Gaussian{}.LogDensity(x, center, h)
}

func (slowGaussian) LogDensityObs(x, center, h []float64, obs []int) float64 {
	return kernels.Gaussian{}.LogDensityObs(x, center, h, obs)
}

func (slowGaussian) Name() string { return "slow-gaussian" }

// TestNonSweepableKernelKeepsPointerLoop pins the input the pointer
// loop is kept for: with a kernel that cannot sweep, RefreshSoA changes
// neither the path a query takes nor one bit of its scores.
func TestNonSweepableKernelKeepsPointerLoop(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Kernel = slowGaussian{}
	xs, ys := twoClassData(300, 23)
	mt, err := NewMultiTree(cfg, []int{0, 1}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if err := mt.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	queries, _ := twoClassData(10, 24)
	queries = append(queries, []float64{math.NaN(), 0.4})
	run := func(x []float64) (trace [][]float64) {
		q, err := mt.NewQuery(x, ClassifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		if q.UsedSoA() {
			t.Fatalf("query over a non-sweepable kernel took the mirror")
		}
		for {
			trace = append(trace, q.Scores())
			if !q.Step() {
				return trace
			}
		}
	}
	before := make([][][]float64, len(queries))
	for i, x := range queries {
		before[i] = run(x)
	}
	mt.RefreshSoA()
	for i, x := range queries {
		after := run(x)
		if len(after) != len(before[i]) {
			t.Fatalf("query %d: %d steps after RefreshSoA, %d before", i, len(after), len(before[i]))
		}
		for step := range after {
			if !bitsEqual(after[step], before[i][step]) {
				t.Fatalf("query %d step %d: scores %v after RefreshSoA != %v before", i, step, after[step], before[i][step])
			}
		}
	}
}

// TestSoAConcurrentQueries exercises the published mirror from many
// goroutines at once; run with -race to verify queries share it without
// writes.
func TestSoAConcurrentQueries(t *testing.T) {
	xs, ys := twoClassData(400, 17)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	mt.RefreshSoA()
	queries, _ := twoClassData(32, 18)
	// The reference answers come from the pointer loop.
	want := make([]int, len(queries))
	for i, x := range queries {
		q, err := pointerQuery(mt, x, ClassifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 40 && q.Step(); b++ {
		}
		want[i] = q.Predict()
		q.Close()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, x := range queries {
				pred, err := mt.Classify(x, ClassifierOptions{}, 40)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if pred != want[i] {
					t.Errorf("goroutine %d: pred %d want %d", g, pred, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
