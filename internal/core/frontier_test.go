package core

import (
	"math"
	"math/rand"
	"testing"
)

// buildTree constructs a tree over n random points.
func buildTree(t *testing.T, n, d int, seed int64) *Tree {
	t.Helper()
	tree, err := NewTree(smallConfig(d))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range randPoints(rng, n, d) {
		if err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

// directKernelLogDensity computes log p(x) = log( (1/n) Σ K(x; xi, h) )
// directly over all stored points — the ground truth the fully refined
// frontier must reproduce (Definition 3 at kernel level).
func directKernelLogDensity(tree *Tree, x []float64) float64 {
	h := tree.Bandwidth()
	var logs []float64
	var collect func(n *Node)
	collect = func(n *Node) {
		if n.IsLeaf() {
			for _, p := range n.Points() {
				logs = append(logs, tree.Config().Kernel.LogDensity(x, p, h))
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

// The central correctness test: a fully refined anytime cursor computes
// exactly the kernel density estimate, for every descent strategy.
func TestFullRefinementMatchesDirectKDE(t *testing.T) {
	tree := buildTree(t, 300, 3, 1)
	rng := rand.New(rand.NewSource(2))
	for _, strat := range []Strategy{DescentGlobal, DescentBFT, DescentDFT} {
		for _, prio := range []Priority{PriorityProbabilistic, PriorityGeometric} {
			for q := 0; q < 10; q++ {
				x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				cur := tree.NewCursor(x, strat, prio)
				cur.RefineAll()
				got := cur.LogDensity()
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
	cur := tree.NewCursor(x, DescentGlobal, PriorityProbabilistic)
	ref := tree.NewCursor(x, DescentGlobal, PriorityProbabilistic)
	_ = ref
	for step := 0; ; step++ {
		// Recompute the same frontier state with a fresh cursor replaying
		// the same number of refinements (deterministic strategies make
		// the frontiers identical).
		fresh := tree.NewCursor(x, DescentGlobal, PriorityProbabilistic)
		for i := 0; i < step; i++ {
			fresh.Refine()
		}
		a, b := cur.LogDensity(), fresh.LogDensity()
		if math.Abs(a-b) > 1e-6*(1+math.Abs(b)) {
			t.Fatalf("step %d: incremental %v vs replay %v", step, a, b)
		}
		if !cur.Refine() {
			break
		}
	}
}

// Node accounting: each Refine reads exactly one node, and the total
// number of reads to exhaustion equals the node count of the tree.
func TestNodesReadCount(t *testing.T) {
	tree := buildTree(t, 250, 2, 4)
	s := tree.Stats()
	cur := tree.NewCursor([]float64{0.5, 0.5}, DescentBFT, PriorityProbabilistic)
	reads := cur.RefineAll()
	if reads != s.Nodes {
		t.Fatalf("read %d nodes to exhaustion, tree has %d", reads, s.Nodes)
	}
	if !cur.Exhausted() {
		t.Fatalf("cursor not exhausted after RefineAll")
	}
	if cur.Refine() {
		t.Fatalf("refine after exhaustion succeeded")
	}
}

// The density at step 0 must equal the root entry's single Gaussian — the
// level-0 complete model.
func TestLevelZeroModel(t *testing.T) {
	tree := buildTree(t, 150, 2, 5)
	x := []float64{0.3, 0.3}
	cur := tree.NewCursor(x, DescentGlobal, PriorityProbabilistic)
	e, _ := tree.RootEntry()
	want := e.Gaussian().LogPDF(x)
	if got := cur.LogDensity(); math.Abs(got-want) > 1e-9 {
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
		cur := tree.NewCursor(x, DescentGlobal, PriorityProbabilistic)
		cur.Refine() // read the root: frontier = root's entries
		// Compute the expected winner among root entries.
		root := tree.Root()
		if root.IsLeaf() {
			return
		}
		bestIdx, best := -1, math.Inf(-1)
		for i, e := range root.Entries() {
			g := e.CF.Gaussian()
			term := math.Log(e.CF.N) + g.LogPDF(x)
			if term > best {
				bestIdx, best = i, term
			}
		}
		// Drop the expected winner's contribution by refining once more
		// and verify the density change matches replacing that entry
		// (replay with a fresh cursor bound to a tree whose winner is
		// checked structurally instead: the heap top's child must be the
		// winning entry's child).
		top := cur.front.heap[0].payload
		if top.child != root.Entries()[bestIdx].Child {
			t.Fatalf("query %d: glo would refine a non-maximal entry", q)
		}
	}
}

// Empty tree yields no cursor.
func TestCursorOnEmptyTree(t *testing.T) {
	tree, _ := NewTree(smallConfig(2))
	if cur := tree.NewCursor([]float64{0, 0}, DescentGlobal, PriorityProbabilistic); cur != nil {
		t.Fatalf("cursor on empty tree")
	}
}

// A tree whose root is still a leaf refines in exactly one step.
func TestTinyTreeCursor(t *testing.T) {
	tree, _ := NewTree(smallConfig(2))
	for i := 0; i < 3; i++ {
		if err := tree.Insert([]float64{float64(i) * 0.1, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	cur := tree.NewCursor([]float64{0.1, 0.5}, DescentGlobal, PriorityProbabilistic)
	if !cur.Refine() {
		t.Fatal("first refine failed")
	}
	if cur.Refine() {
		t.Fatal("second refine on leaf-root tree succeeded")
	}
	want := directKernelLogDensity(tree, []float64{0.1, 0.5})
	if got := cur.LogDensity(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("tiny tree density %v, want %v", got, want)
	}
}

// Queries far outside the data range must stay numerically sane (the
// shifted accumulator can underflow to zero density but never NaN).
func TestFarQueryNumericallySane(t *testing.T) {
	tree := buildTree(t, 200, 2, 8)
	x := []float64{1e6, -1e6}
	cur := tree.NewCursor(x, DescentGlobal, PriorityProbabilistic)
	for cur.Refine() {
	}
	ld := cur.LogDensity()
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
