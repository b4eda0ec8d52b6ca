package core

import (
	"math"
	"math/rand"
	"testing"

	"bayestree/internal/kernels"
)

// buildTree constructs a one-class tree over n random points by R*
// insertion.
func buildTree(t *testing.T, n, d int, seed int64) *MultiTree {
	t.Helper()
	return rstarTree(t, smallConfig(d), randPoints(rand.New(rand.NewSource(seed)), n, d))
}

// densityQuery starts an anytime density query of x against a one-class
// tree: its one class's query.
func densityQuery(tb testing.TB, tree *MultiTree, x []float64, s Strategy, p Priority) *MultiQuery {
	tb.Helper()
	q, err := tree.NewQuery(x, ClassifierOptions{Strategy: s, Priority: p})
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// logDensity is a one-class query's current log mixture density
// pdq(x, E) for its frontier E (Definition 3): its class's score, whose
// prior is log 1 = 0.
func logDensity(q *MultiQuery) float64 { return q.scoresInto(nil)[0] }

// refineAll steps the query to exhaustion and returns the nodes read.
func refineAll(q *MultiQuery) int {
	start := q.NodesRead()
	for q.Step() {
	}
	return q.NodesRead() - start
}

// directKernelLogDensity computes log p(x) = log( (1/n) Σ K(x; xi, h) )
// directly over all stored points of a one-class tree — the ground truth
// the fully refined frontier must reproduce (Definition 3 at kernel
// level).
func directKernelLogDensity(tree *MultiTree, x []float64) float64 {
	h := tree.queryConsts().bw[0]
	var logs []float64
	var collect func(n *MultiNode)
	collect = func(n *MultiNode) {
		if n.IsLeaf() {
			for _, p := range n.Points() {
				logs = append(logs, kernels.Gaussian{}.LogDensity(x, p.X, h))
			}
			return
		}
		for _, e := range n.Entries() {
			collect(e.Child)
		}
	}
	collect(tree.Root())
	// logsumexp - log n
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
	return m + math.Log(s) - math.Log(float64(len(logs)))
}

// The central correctness test: a fully refined anytime query computes
// exactly the kernel density estimate, for every descent strategy.
func TestFullRefinementMatchesDirectKDE(t *testing.T) {
	tree := buildTree(t, 300, 3, 1)
	rng := rand.New(rand.NewSource(2))
	for _, strat := range []Strategy{DescentGlobal, DescentBFT, DescentDFT} {
		for _, prio := range []Priority{PriorityProbabilistic, PriorityGeometric} {
			for q := 0; q < 10; q++ {
				x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				cur := densityQuery(t, tree, x, strat, prio)
				refineAll(cur)
				got := logDensity(cur)
				want := directKernelLogDensity(tree, x)
				if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
					t.Fatalf("%v/%v query %d: got %v, want %v", strat, prio, q, got, want)
				}
			}
		}
	}
}

// The incremental accumulator must agree with a from-scratch evaluation of
// the frontier mixture at every intermediate step, not only at the end.
func TestIncrementalDensityConsistentAtEveryStep(t *testing.T) {
	tree := buildTree(t, 200, 2, 3)
	x := []float64{0.4, 0.6}
	cur := densityQuery(t, tree, x, DescentGlobal, PriorityProbabilistic)
	for step := 0; ; step++ {
		// Recompute the same frontier state with a fresh query replaying
		// the same number of refinements (deterministic strategies make
		// the frontiers identical).
		fresh := densityQuery(t, tree, x, DescentGlobal, PriorityProbabilistic)
		for i := 0; i < step; i++ {
			fresh.Step()
		}
		a, b := logDensity(cur), logDensity(fresh)
		fresh.Close()
		if math.Abs(a-b) > 1e-6*(1+math.Abs(b)) {
			t.Fatalf("step %d: incremental %v vs replay %v", step, a, b)
		}
		if !cur.Step() {
			break
		}
	}
}

// Node accounting: each Step reads exactly one node, and the total
// number of reads to exhaustion equals the node count of the tree.
func TestNodesReadCount(t *testing.T) {
	tree := buildTree(t, 250, 2, 4)
	s := tree.Stats()
	cur := densityQuery(t, tree, []float64{0.5, 0.5}, DescentBFT, PriorityProbabilistic)
	reads := refineAll(cur)
	if reads != s.Nodes {
		t.Fatalf("read %d nodes to exhaustion, tree has %d", reads, s.Nodes)
	}
	if !cur.Exhausted() {
		t.Fatalf("query not exhausted after refining all")
	}
	if cur.Step() {
		t.Fatalf("step after exhaustion succeeded")
	}
}

// The density at step 0 must equal the root entry's single Gaussian — the
// level-0 complete model.
func TestLevelZeroModel(t *testing.T) {
	tree := buildTree(t, 150, 2, 5)
	x := []float64{0.3, 0.3}
	cur := densityQuery(t, tree, x, DescentGlobal, PriorityProbabilistic)
	e := rootEntry(tree)
	want := e.CFs[0].Gaussian().LogPDF(x)
	if got := logDensity(cur); math.Abs(got-want) > 1e-9 {
		t.Fatalf("level-0 density %v, want %v", got, want)
	}
	if cur.NodesRead() != 0 {
		t.Fatalf("reads at level 0 = %d", cur.NodesRead())
	}
}

// Global descent is greedy: with the probabilistic priority, the first
// refinement after reading the root must expand the child entry whose
// weighted density at the query is highest (the defining property of the
// glo strategy; its accuracy advantage is asserted end-to-end in the
// classifier tests).
func TestGlobalDescentPopsHighestContribution(t *testing.T) {
	tree := buildTree(t, 800, 2, 6)
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 20; q++ {
		x := []float64{rng.Float64(), rng.Float64()}
		cur := densityQuery(t, tree, x, DescentGlobal, PriorityProbabilistic)
		cur.Step() // read the root: frontier = root's entries
		// Compute the expected winner among root entries.
		root := tree.Root()
		if root.IsLeaf() {
			return
		}
		bestIdx, best := -1, math.Inf(-1)
		for i, e := range root.Entries() {
			g := e.CFs[0].Gaussian()
			term := math.Log(e.CFs[0].N) + g.LogPDF(x)
			if term > best {
				bestIdx, best = i, term
			}
		}
		// Drop the expected winner's contribution by refining once more
		// and verify the density change matches replacing that entry
		// (replay with a fresh query bound to a tree whose winner is
		// checked structurally instead: once settled, the heap top's node
		// must mirror the winning entry's child).
		cur.settle()
		top := cur.front.heap[0].payload
		if top.node != cur.soa.index[root.Entries()[bestIdx].Child] {
			t.Fatalf("query %d: glo would refine a non-maximal entry", q)
		}
	}
}

// An empty class tree starts no query, and a forest over a class tree
// that decayed empty scores that class −Inf.
func TestCursorOnEmptyTree(t *testing.T) {
	tree := emptyClassTree(t, smallConfig(2))
	if q, err := tree.NewQuery([]float64{0, 0}, ClassifierOptions{}); q != nil || err == nil {
		t.Fatalf("query on empty tree")
	}
	trees := make([]*MultiTree, 2)
	for c := range trees {
		var err error
		if trees[c], err = NewMultiTree(decayTestConfig(2), []int{c}, MultiOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := trees[c].EnableDecay(DecayOptions{Lambda: 1, MinWeight: 0.5}); err != nil {
			t.Fatal(err)
		}
		if err := trees[c].Insert([]float64{float64(c), 0}, c); err != nil {
			t.Fatal(err)
		}
	}
	clf, err := NewClassifier(trees, ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clf.AdvanceDecay()
	if err := clf.Learn([]float64{1, 0}, 1); err != nil {
		t.Fatal(err)
	}
	clf.AdvanceDecay()
	if trees[0].Len() != 0 || trees[1].Len() != 1 {
		t.Fatalf("classes hold %d and %d points, want 0 (decayed away) and 1", trees[0].Len(), trees[1].Len())
	}
	q := clf.NewQuery([]float64{0, 0})
	if s := q.scores(); !math.IsInf(s[0], -1) || math.IsInf(s[1], 0) {
		t.Fatalf("scores %v, want class 0 at −Inf and class 1 finite", s)
	}
	if q.Predict() != 1 || !q.Step() || q.Step() || !q.Exhausted() {
		t.Fatal("the forest must answer from class 1 alone and read its one node")
	}
	q.Close()
}

// A tree whose root is still a leaf refines in exactly one step.
func TestTinyTreeCursor(t *testing.T) {
	tree := rstarTree(t, smallConfig(2), [][]float64{{0, 0.5}, {0.1, 0.5}, {0.2, 0.5}})
	cur := densityQuery(t, tree, []float64{0.1, 0.5}, DescentGlobal, PriorityProbabilistic)
	if !cur.Step() {
		t.Fatal("first step failed")
	}
	if cur.Step() {
		t.Fatal("second step on leaf-root tree succeeded")
	}
	want := directKernelLogDensity(tree, []float64{0.1, 0.5})
	if got := logDensity(cur); math.Abs(got-want) > 1e-9 {
		t.Fatalf("tiny tree density %v, want %v", got, want)
	}
}

// Queries far outside the data range must stay numerically sane (the
// shifted accumulator can underflow to zero density but never NaN).
func TestFarQueryNumericallySane(t *testing.T) {
	tree := buildTree(t, 200, 2, 8)
	x := []float64{1e6, -1e6}
	cur := densityQuery(t, tree, x, DescentGlobal, PriorityProbabilistic)
	refineAll(cur)
	ld := logDensity(cur)
	if math.IsNaN(ld) {
		t.Fatalf("far query produced NaN")
	}
	if ld > -100 {
		t.Fatalf("far query density suspiciously high: %v", ld)
	}
}

func TestStrategyPriorityStrings(t *testing.T) {
	if DescentGlobal.String() != "glo" || DescentBFT.String() != "bft" || DescentDFT.String() != "dft" {
		t.Errorf("strategy names wrong")
	}
	if PriorityProbabilistic.String() != "prob" || PriorityGeometric.String() != "geom" {
		t.Errorf("priority names wrong")
	}
	if Strategy(9).String() != "unknown" || Priority(9).String() != "unknown" {
		t.Errorf("unknown names wrong")
	}
}

// accumulatorOracle is the accumulator calling math.Exp on every term.
type accumulatorOracle struct{ sum, shift float64 }

func (a *accumulatorOracle) add(l float64) float64 {
	if math.IsInf(l, -1) {
		return 0
	}
	if math.IsInf(a.shift, -1) {
		a.shift, a.sum = l, 1
		return 1
	}
	if l > a.shift+30 {
		a.sum *= math.Exp(a.shift - l)
		a.shift = l
	}
	v := math.Exp(l - a.shift)
	a.sum += v
	return v
}

func (a *accumulatorOracle) remove(l float64) {
	if math.IsInf(l, -1) || math.IsInf(a.shift, -1) {
		return
	}
	a.sum -= math.Exp(l - a.shift)
	if a.sum < 0 {
		a.sum = 0
	}
}

// TestAccumulatorExpSkipMatchesOracle holds the accumulator, which
// skips math.Exp where it returns exactly 0, to the always-call form bit
// for bit over random add and remove sequences whose terms fall on both
// sides of −746 below the shift, jump above it by more than 746, or are
// −Inf or NaN.
func TestAccumulatorExpSkipMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	term := func(shift float64) float64 {
		if math.IsInf(shift, -1) {
			shift = 0
		}
		switch rng.Intn(8) {
		case 0:
			return math.Inf(-1)
		case 1:
			if rng.Intn(50) == 0 {
				return math.NaN()
			}
			return shift + 800*rng.Float64()
		case 2, 3:
			return shift - 744.9 - 1.3*rng.Float64()
		case 4:
			return shift - 745.1332191019412 + 1e-12*rng.NormFloat64()
		default:
			return shift - 40*rng.Float64()
		}
	}
	bits := math.Float64bits
	for run := 0; run < 2000; run++ {
		var a accumulator
		a.reset()
		o := accumulatorOracle{shift: math.Inf(-1)}
		var added []float64
		for step := 0; step < 40; step++ {
			if len(added) > 0 && rng.Intn(3) == 0 {
				l := added[rng.Intn(len(added))]
				a.remove(l)
				o.remove(l)
			} else {
				l := term(o.shift)
				added = append(added, l)
				if got, want := a.add(l), o.add(l); bits(got) != bits(want) {
					t.Fatalf("run %d step %d: add(%v) = %v, the oracle adds %v", run, step, l, got, want)
				}
			}
			if bits(a.sum) != bits(o.sum) || bits(a.shift) != bits(o.shift) {
				t.Fatalf("run %d step %d: (sum %v, shift %v), the oracle (%v, %v)", run, step, a.sum, a.shift, o.sum, o.shift)
			}
		}
	}
}
