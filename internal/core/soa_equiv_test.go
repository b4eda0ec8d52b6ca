package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"bayestree/internal/stats"
)

// These are the digit-identity property tests of the descent contract
// (soa.go): a query served through the structure-of-arrays mirror must
// produce bitwise the same scores, at every step, as the pointer loop it
// replaced — across strategies, priorities, variance modes, missing-value
// queries and randomized insert/decay/classify interleavings. Run them
// under -race to also check the published mirror is safe for concurrent
// readers.

// oracleQuery is the suite's reference: the pointer loop, which lives
// only here. It walks the tree's own nodes and entries, derives every
// Gaussian from the entry's cluster features by the allocating route
// (CF.Mean, CF.Variance, Gaussian.Freeze — not the mirror's in-place
// SetMean / SetVariance), evaluates entries and kernel centres one at a
// time (LogPDFObs, LogDensityObs — no sweep), and summarises the root
// afresh. It shares with MultiQuery the per-class kernels and log counts
// (checkQueryStateMatchesRebuild guards those), the frontier and the
// per-class accumulators — whose independent check is the direct kernel
// density in frontier_test.go — and scores.
type oracleQuery struct {
	*MultiQuery
	nodes []*MultiNode // what multiRef.node indexes here, in place of the mirror
}

func newOracleQuery(mt *MultiTree, x []float64, opts ClassifierOptions) (*oracleQuery, error) {
	if mt.size == 0 {
		return nil, fmt.Errorf("oracle: query against empty multi tree")
	}
	st := mt.queryConsts()
	o := &oracleQuery{MultiQuery: &MultiQuery{
		t: mt, x: x, opts: opts, kern: st.kern, logNc: st.logNc,
		accs: make([]accumulator, len(mt.labels)),
	}}
	o.front.reset(opts.Strategy)
	for c := range o.accs {
		o.accs[c].reset()
	}
	o.obs, _ = stats.ObservedDimsInto(x, nil)
	root := mt.summarize(mt.root)
	o.pushEntry(&root)
	return o, nil
}

// pushEntry adds an entry's per-class terms and enqueues its child.
func (o *oracleQuery) pushEntry(e *MultiEntry) {
	off := len(o.terms)
	for c := range e.CFs {
		term := math.Inf(-1)
		if e.CFs[c].N > 0 && !math.IsInf(o.logNc[c], 1) {
			g := e.CFs[c].Gaussian()
			if o.t.mopts.PooledVariance {
				g.Var = e.Total.Variance()
			}
			f := g.Freeze()
			term = math.Log(e.CFs[c].N) - o.logNc[c] + f.LogPDFObs(o.x, o.obs)
		}
		o.terms = append(o.terms, term)
		o.accs[c].add(term)
	}
	el := multiRef{termOff: int32(off), node: int32(len(o.nodes))}
	o.nodes = append(o.nodes, e.Child)
	var prio float64
	if o.opts.Priority == PriorityGeometric {
		prio = -e.Rect.MinDist2Obs(o.x, o.obs)
	} else {
		var finite []float64
		for _, tm := range o.terms[off:] {
			if !math.IsInf(tm, -1) {
				finite = append(finite, tm)
			}
		}
		prio = stats.LogSumExp(finite)
	}
	o.front.push(prio, el)
}

// Step refines one node through the pointer tree.
func (o *oracleQuery) Step() bool {
	el, ok := o.front.pop()
	if !ok {
		return false
	}
	o.reads++
	for c := range o.accs {
		o.accs[c].remove(o.terms[int(el.termOff)+c])
	}
	n := o.nodes[el.node]
	for i := range n.entries {
		o.pushEntry(&n.entries[i])
	}
	for i, p := range n.points {
		c := o.t.index[p.Label]
		if math.IsInf(o.logNc[c], 1) {
			continue
		}
		l := -o.logNc[c] + o.kern[c].LogDensityObs(o.x, p.X, o.obs)
		if n.weights != nil {
			l += math.Log(n.weights[i])
		}
		o.accs[c].add(l)
	}
	return true
}

// run steps the oracle through budget node reads (negative = until
// exhausted).
func (o *oracleQuery) run(budget int) {
	for b := 0; (budget < 0 || b < budget) && o.Step(); b++ {
	}
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

// nextRef is the element the frontier's next pop returns (a lazy heap
// must have been settled first).
func nextRef(f *frontier) (multiRef, bool) {
	switch {
	case f.exhausted():
		return multiRef{}, false
	case f.strategy == DescentGlobal:
		return f.heap[0].payload, true
	case f.strategy == DescentBFT:
		return f.fifo[f.head].payload, true
	}
	return f.fifo[len(f.fifo)-1].payload, true
}

// lockstep counts what a compareMultiQuery run exercised.
type lockstep struct {
	stale int // reads of an element pushed before a shift moved: removal recomputes
	ties  int // reads whose exact priority tied another's: seq decided
}

// compareMultiQuery runs x through the oracle and the mirror in lockstep
// and fails on the first step whose scores differ in any bit or that
// reads a different tree node. budget < 0 means until exhaustion.
func compareMultiQuery(t *testing.T, ctx string, mt *MultiTree, x []float64, opts ClassifierOptions, budget int) (seen lockstep) {
	t.Helper()
	qe, err := newOracleQuery(mt, x, opts)
	if err != nil {
		t.Fatalf("%s: oracle query: %v", ctx, err)
	}
	qs, err := mt.NewQuery(x, opts)
	if err != nil {
		t.Fatalf("%s: mirror query: %v", ctx, err)
	}
	defer qs.Close()
	treeNode := make(map[int32]*MultiNode, len(qs.soa.index))
	for n, idx := range qs.soa.index {
		treeNode[idx] = n
	}
	for step := 0; budget < 0 || step <= budget; step++ {
		se, ss := qe.Scores(), qs.Scores()
		if !bitsEqual(se, ss) {
			t.Fatalf("%s: step %d: mirror scores %v != oracle %v", ctx, step, ss, se)
		}
		qs.settle()
		re, _ := nextRef(&qe.front)
		if rs, ok := nextRef(&qs.front); ok {
			if treeNode[rs.node] != qe.nodes[re.node] {
				t.Fatalf("%s: step %d: mirror reads another node than the oracle", ctx, step)
			}
			if int(rs.termOff) < qs.fresh {
				seen.stale++
			}
		}
		if h := qe.front.heap; len(h) > 1 && h[0].prio == h[1].prio || len(h) > 2 && h[0].prio == h[2].prio {
			seen.ties++
		}
		checkLazyKeys(t, ctx, step, qe, qs, treeNode)
		oke, oks := qe.Step(), qs.Step()
		if oke != oks {
			t.Fatalf("%s: step %d: oracle Step=%v, mirror Step=%v", ctx, step, oke, oks)
		}
		if qe.NodesRead() != qs.NodesRead() {
			t.Fatalf("%s: step %d: oracle reads %d, mirror reads %d", ctx, step, qe.NodesRead(), qs.NodesRead())
		}
		if !oke {
			break
		}
	}
	if qe.Predict() != qs.Predict() {
		t.Fatalf("%s: predictions differ: oracle %d, mirror %d", ctx, qe.Predict(), qs.Predict())
	}
	return seen
}

// checkLazyKeys holds every element of the mirror's heap to the oracle's
// exact priority p for the same node: lower bound ≤ p ≤ key, and a key
// equal to its lower bound is p. (The root, the first read, is alone in
// the heap: the mirror keys it 0, the oracle exactly.)
func checkLazyKeys(t *testing.T, ctx string, step int, qe *oracleQuery, qs *MultiQuery, treeNode map[int32]*MultiNode) {
	t.Helper()
	if len(qs.front.heap) < 2 {
		return
	}
	exact := make(map[*MultiNode]float64, len(qe.front.heap))
	for _, it := range qe.front.heap {
		exact[qe.nodes[it.payload.node]] = it.prio
	}
	nc := len(qs.accs)
	for _, it := range qs.front.heap {
		p, ok := exact[treeNode[it.payload.node]]
		lo := qs.terms[int(it.payload.termOff)+2*nc]
		if !ok || !(lo <= p && p <= it.prio) || lo == it.prio && p != it.prio {
			t.Fatalf("%s: step %d: element keyed %v, lower bound %v, exact priority %v (in the oracle's frontier: %v)", ctx, step, it.prio, lo, p, ok)
		}
	}
}

func soaVariants() (strategies []Strategy, priorities []Priority) {
	return []Strategy{DescentGlobal, DescentBFT, DescentDFT},
		[]Priority{PriorityProbabilistic, PriorityGeometric}
}

func TestSoAEquivalenceMultiTree(t *testing.T) {
	strategies, priorities := soaVariants()
	for _, mo := range []MultiOptions{{}, {PooledVariance: true}} {
		xs, ys := twoClassData(400, 7)
		mt := buildMultiTree(t, xs, ys, mo)
		queries, _ := twoClassData(12, 8)
		// Missing-value queries exercise the marginal (obs) sweeps.
		queries = append(queries, []float64{math.NaN(), 0.5}, []float64{0.3, math.NaN()})
		for _, strat := range strategies {
			for _, prio := range priorities {
				opts := ClassifierOptions{Strategy: strat, Priority: prio}
				for qi, x := range queries {
					budget := []int{0, 1, 7, 64, -1}[qi%5]
					ctx := fmt.Sprintf("mo=%+v/strat=%v/prio=%v", mo, strat, prio)
					compareMultiQuery(t, ctx, mt, x, opts, budget)
				}
			}
		}
	}
}

// lazyOrderData draws the lazy-order tree's training set in dim 5 over
// labels 0–6, of which 6 is never inserted. First grid positions, in
// order, each inserted twice under every present label: a leaf tends to
// hold one position under all six labels, so the class terms of an
// entry over such leaves are all equal — its log-sum-exp sits exactly
// ln n above their max — and twin leaves tie exactly. Then, shuffled, two tight clusters per
// class far apart, so that a query at one finds terms far above the
// root's and an accumulator rescales mid-descent.
func lazyOrderData(rng *rand.Rand) (xs [][]float64, ys []int) {
	const dim, present = 5, 6
	for g := 0; g < 24; g++ {
		p := make([]float64, dim)
		for i := range p {
			p[i] = float64(rng.Intn(3))
		}
		for copies := 0; copies < 2; copies++ {
			for y := 0; y < present; y++ {
				xs, ys = append(xs, p), append(ys, y)
			}
		}
	}
	grid := len(xs)
	for y := 0; y < present; y++ {
		for _, side := range []float64{-40, 40} {
			for j := 0; j < 8; j++ {
				p := make([]float64, dim)
				for i := range p {
					p[i] = side + float64(y) + 0.01*rng.NormFloat64()
				}
				xs, ys = append(xs, p), append(ys, y)
			}
		}
	}
	rng.Shuffle(len(xs)-grid, func(i, j int) {
		i, j = i+grid, j+grid
		xs[i], xs[j], ys[i], ys[j] = xs[j], xs[i], ys[j], ys[i]
	})
	return xs, ys
}

// TestSoAEquivalenceLazyOrder holds the lazy priority heap, the stored
// removals and the one-sweep inner node to the eager oracle where they
// can break: 6 of 7 classes present (sweeps of 14–35 rows, every
// remainder of the sweep's four-row loop), exact priority ties, entries
// whose log-sum-exp equals its upper or lower bound, accumulators that
// rescale mid-descent, missing values and PooledVariance. Every step is
// compared: scores bitwise, the node read and every lazy key.
func TestSoAEquivalenceLazyOrder(t *testing.T) {
	var total lockstep
	for _, mo := range []MultiOptions{{}, {PooledVariance: true}} {
		rng := rand.New(rand.NewSource(5))
		xs, ys := lazyOrderData(rng)
		mt, err := NewMultiTree(smallConfig(5), []int{0, 1, 2, 3, 4, 5, 6}, mo)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if err := mt.Insert(xs[i], ys[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Grid positions and their midpoint, the clusters, far out; and
		// the first four with two dimensions missing.
		queries := [][]float64{xs[0], xs[12*7], {1, 1, 1, 1, 1}, {40, 40, 40, 40, 40}, {-38, -38, -38, -38, -38}, xs[len(xs)-1], {300, -300, 0, 7, 1}}
		for _, x := range queries[:4] {
			queries = append(queries, []float64{x[0], math.NaN(), x[2], math.NaN(), x[4]})
		}
		for _, strat := range []Strategy{DescentGlobal, DescentBFT, DescentDFT} {
			for qi, x := range queries {
				ctx := fmt.Sprintf("mo=%+v/strat=%v/query %d", mo, strat, qi)
				seen := compareMultiQuery(t, ctx, mt, x, ClassifierOptions{Strategy: strat}, -1)
				total.stale += seen.stale
				total.ties += seen.ties
			}
		}
	}
	if total.stale == 0 || total.ties == 0 {
		t.Fatalf("the data no longer exercise the lazy heap: %d stale reads, %d ties", total.stale, total.ties)
	}
}

// TestSoAEquivalenceUnderMutation is the randomized interleaving
// property: inserts and decay steps interleaved with
// classifications, with no refresh call anywhere. After every mutation
// the mirror is either gone (a structural mutation dropped it, and the
// next query builds it) or, after an insert, block for block a fresh
// build; every query is bitwise the oracle's.
func TestSoAEquivalenceUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mt, err := NewMultiTree(smallConfig(3), []int{0, 1, 2}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	point := func() []float64 { return []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()} }
	insert := func(k int) {
		for j := 0; j < k; j++ {
			live := mt.soa.Load() != nil
			if err := mt.Insert(point(), rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
			if live {
				checkMirrorIsFreshBuild(t, "after insert", mt)
			} else if mt.soa.Load() != nil {
				t.Fatalf("an insert into a tree without a mirror built one")
			}
		}
	}
	insert(120)
	if err := mt.EnableDecay(DecayOptions{Lambda: 0.1, MinWeight: 1e-4}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		switch op := rng.Intn(4); op {
		case 0, 1:
			insert(1 + rng.Intn(5))
		default:
			mt.AdvanceDecay()
			if mt.soa.Load() != nil {
				t.Fatalf("round %d: a structural mutation left the mirror published", round)
			}
		}
		if rng.Intn(4) != 0 { // sometimes mutate again first: no mirror, no mirror work
			compareMultiQuery(t, fmt.Sprintf("round %d", round), mt, point(), ClassifierOptions{}, 1+rng.Intn(40))
		}
		if err := mt.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	rebuilds, patches, invalidations := mt.SoACounters()
	if rebuilds == 0 || patches == 0 || invalidations == 0 {
		t.Fatalf("counters did not move: rebuilds=%d patches=%d invalidations=%d", rebuilds, patches, invalidations)
	}
}

// TestSoAPatchPath pins the repair's accounting: once a query has built
// the mirror, every insert — split or not — is one patch and no build.
func TestSoAPatchPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mt, err := NewMultiTree(smallConfig(2), []int{0, 1}, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 250; j++ {
		if j == 200 {
			if r, p, _ := mt.SoACounters(); r != 0 || p != 0 {
				t.Fatalf("inserts with no mirror made %d builds, %d patches", r, p)
			}
			compareMultiQuery(t, "first query", mt, []float64{rng.Float64(), rng.Float64()}, ClassifierOptions{}, -1)
		}
		if err := mt.Insert([]float64{rng.Float64(), rng.Float64()}, j%2); err != nil {
			t.Fatal(err)
		}
		if j >= 200 {
			compareMultiQuery(t, "patched", mt, []float64{rng.Float64(), rng.Float64()}, ClassifierOptions{}, -1)
		}
	}
	if r, p, inv := mt.SoACounters(); r != 1 || p != 50 || inv != 0 {
		t.Fatalf("50 inserts under a mirror: %d builds, %d patches, %d drops; want 1, 50, 0", r, p, inv)
	}
}

// TestFirstQueryBuildsMirror: goroutines racing to put the first query to
// a tree nobody refreshed each build a mirror, exactly one is published
// (one rebuild counted), every score is bitwise the oracle's, and the
// insert that follows repairs that mirror instead of building another.
// Run under -race.
func TestFirstQueryBuildsMirror(t *testing.T) {
	xs, ys := twoClassData(400, 17)
	mt := buildMultiTree(t, xs, ys, MultiOptions{})
	queries, _ := twoClassData(16, 18)
	const budget = 40
	want := make([][]float64, len(queries))
	for i, x := range queries {
		q, err := newOracleQuery(mt, x, ClassifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		q.run(budget)
		want[i] = q.Scores()
	}
	if mt.soa.Load() != nil {
		t.Fatalf("the oracle built a mirror")
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range queries {
				i = (i + g) % len(queries)
				q, err := mt.NewQuery(queries[i], ClassifierOptions{})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				for b := 0; b < budget && q.Step(); b++ {
				}
				if got := q.Scores(); !bitsEqual(got, want[i]) {
					t.Errorf("goroutine %d: query %d: scores %v, oracle %v", g, i, got, want[i])
				}
				q.Close()
			}
		}(g)
	}
	close(start)
	wg.Wait()
	published := mt.soa.Load()
	if r, p, _ := mt.SoACounters(); published == nil || r != 1 || p != 0 {
		t.Fatalf("after the first queries: mirror %v, %d builds, %d patches; want one build", published != nil, r, p)
	}
	if err := mt.Insert(queries[0], 0); err != nil {
		t.Fatal(err)
	}
	if r, p, _ := mt.SoACounters(); mt.soa.Load() != published || r != 1 || p != 1 {
		t.Fatalf("after an insert: same mirror %v, %d builds, %d patches; want the same mirror, 1, 1", mt.soa.Load() == published, r, p)
	}
	checkMirrorIsFreshBuild(t, "after an insert", mt)
}
