package clustree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bayestree/internal/stats"
)

// The eager descent: what InsertCounted did until decay became a
// property of writes — every entry of every node on the way is faded to
// ts before the means are compared. It builds the same model at a higher
// cost (one Exp2 and two Scales per entry passed instead of per level),
// so it is the oracle the production descent is held to, never a
// fallback. It shares everything that did not change: the scratch,
// mergeClosest, the split.

func (t *Tree) eagerInsertCounted(x []float64, ts float64, budget int) (visited int) {
	t.now = ts
	t.inserts++

	t.mass.Reset()
	t.mass.Add(x)
	t.path = t.path[:0]
	n := t.root
	for !n.leaf {
		t.path = append(t.path, n)
		e := t.eagerClosestEntry(n, x, ts)
		if budget == 0 {
			e.buffer.Merge(t.mass)
			t.parked++
			return visited + 1
		}
		e.cf.Merge(t.mass)
		if e.buffer.N > 0 {
			e.cf.Merge(e.buffer)
			t.mass.Merge(e.buffer)
			e.buffer.Reset()
		}
		n = e.child
		visited++
		if budget > 0 {
			budget--
		}
	}
	t.eagerInsertLeaf(n, x, ts, budget)
	return visited + 1
}

func (t *Tree) eagerClosestEntry(n *node, x []float64, ts float64) *entry {
	var best *entry
	bestD := math.Inf(1)
	for _, e := range n.entries {
		t.decay(e, ts)
		if e.cf.N <= 0 && e.buffer.N <= 0 {
			continue
		}
		d := sqDistToMean(&e.cf, x)
		if d < bestD {
			best, bestD = e, d
		}
	}
	if best == nil {
		best = n.entries[0]
	}
	return best
}

func (t *Tree) eagerInsertLeaf(n *node, x []float64, ts float64, budget int) {
	var best *entry
	bestD := math.Inf(1)
	for _, e := range n.entries {
		t.decay(e, ts)
		if e.cf.N <= 0 {
			continue
		}
		d := math.Sqrt(sqDistToMean(&e.cf, x))
		if d < bestD {
			best, bestD = e, d
		}
	}
	if best != nil {
		absorb := MergeThreshold * best.cf.Radius()
		if absorb < AbsorbDistance {
			absorb = AbsorbDistance
		}
		if bestD <= absorb || (len(n.entries) >= MaxLeafEntries && budget == 0) {
			best.cf.Merge(t.mass)
			t.merges++
			return
		}
	}
	n.entries = append(n.entries, &entry{cf: t.mass.Clone(), buffer: stats.NewCF(t.cfg.Dim), ts: ts})
	if len(n.entries) > MaxLeafEntries {
		if budget == 0 {
			t.mergeClosest(n)
			return
		}
		t.splitLeafUp(n, ts)
	}
}

// near reports |a − b| ≤ 1e-9 · scale.
func near(a, b, scale float64) bool {
	return math.Abs(a-b) <= 1e-9*scale
}

// sameModel holds two trees to the same counters and, micro-cluster by
// micro-cluster in tree order, the same N, LS and SS within 1e-9
// relative (LS and SS relative to the larger of the component and the
// cluster's mass: coordinates are of order one).
func sameModel(t *testing.T, at string, got, want *Tree) {
	t.Helper()
	gi, gp, gm, gs := got.Counters()
	wi, wp, wm, ws := want.Counters()
	if gi != wi || gp != wp || gm != wm || gs != ws {
		t.Fatalf("%s: counters (inserts, parked, merges, splits) %d %d %d %d, eager %d %d %d %d", at, gi, gp, gm, gs, wi, wp, wm, ws)
	}
	g, w := got.MicroClusters(0), want.MicroClusters(0)
	if len(g) != len(w) {
		t.Fatalf("%s: %d micro-clusters, eager %d", at, len(g), len(w))
	}
	for i := range g {
		a, b := g[i].CF, w[i].CF
		scale := math.Max(a.N, b.N)
		if !near(a.N, b.N, scale) {
			t.Fatalf("%s: micro-cluster %d N %v, eager %v", at, i, a.N, b.N)
		}
		for k := range a.LS {
			if !near(a.LS[k], b.LS[k], math.Max(scale, math.Abs(b.LS[k]))) ||
				!near(a.SS[k], b.SS[k], math.Max(scale, math.Abs(b.SS[k]))) {
				t.Fatalf("%s: micro-cluster %d dim %d LS %v SS %v, eager LS %v SS %v", at, i, k, a.LS[k], a.SS[k], b.LS[k], b.SS[k])
			}
		}
	}
}

// restored sends a tree through Dump and Rebuild, as a snapshot does.
func restored(t *testing.T, tree *Tree) *Tree {
	t.Helper()
	inserts, parked, merges, splits := tree.Counters()
	out, err := Rebuild(tree.Config(), tree.Dump(), tree.Now(), inserts, parked, merges, splits)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWriteTimeDecayMatchesEager drives the production descent and the
// eager oracle over the same streams — drifting Gaussians as the
// cluster_stream workload sends them, budgets from unlimited down to 0
// and "0 left on arrival at the leaf" so that parking, hitchhiking,
// forced merges and splits all occur, a prune every 300 objects, a dump
// → restore mid-stream — and holds them to the same model. Decay only
// ever multiplies whole CFs and decays compose, so fading an entry when
// it is written to and fading it every time it is walked past differ by
// rounding alone. (mergeClosest is out of a stream's reach — a full leaf
// with budget 0 merges into its nearest entry before it can overflow —
// and has its own test.)
func TestWriteTimeDecayMatchesEager(t *testing.T) {
	for _, lambda := range []float64{0, 0.001, 0.01} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("lambda=%v/seed=%d", lambda, seed), func(t *testing.T) {
				cfg := DefaultConfig(4)
				cfg.Lambda = lambda
				lazy, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eager, _ := New(cfg)
				rng := rand.New(rand.NewSource(seed))
				centres := make([][]float64, 8)
				for s := range centres {
					centres[s] = []float64{0.2 + 0.6*rng.Float64(), 0.2 + 0.6*rng.Float64(), 0.2 + 0.6*rng.Float64(), 0.2 + 0.6*rng.Float64()}
				}
				const n = 4000
				x := make([]float64, 4)
				for i := 0; i < n; i++ {
					c := centres[rng.Intn(len(centres))]
					drift := 0.15 * float64(i) / n
					for d := range x {
						x[d] = c[d] + drift + 0.02*rng.NormFloat64()
					}
					budget := [...]int{-1, -1, 8, 8, 1, 0, lazy.Depth() - 1}[rng.Intn(7)]
					ts := float64(i + 1)
					gv, err := lazy.InsertCounted(x, ts, budget)
					if err != nil {
						t.Fatalf("insert %d: %v", i, err)
					}
					if wv := eager.eagerInsertCounted(x, ts, budget); gv != wv {
						t.Fatalf("insert %d (budget %d): %d node visits, eager %d", i, budget, gv, wv)
					}
					if i%300 == 299 {
						// Not 0.5: a lone object weighs exactly that 1/λ
						// after its insert, where rounding decides.
						gp, gs := lazy.Prune(0.3)
						wp, ws := eager.Prune(0.3)
						if gp != wp || gs != ws {
							t.Fatalf("prune after %d: removed %d points %d subtrees, eager %d %d", i+1, gp, gs, wp, ws)
						}
					}
					if i == n/2 {
						lazy, eager = restored(t, lazy), restored(t, eager)
					}
					if i%500 == 499 {
						sameModel(t, fmt.Sprintf("after %d", i+1), lazy, eager)
					}
				}
				sameModel(t, "final", lazy, eager)
				if err := lazy.Validate(); err != nil {
					t.Fatal(err)
				}
				if lazy.Parked() == 0 || lazy.Splits() == 0 || lazy.Merges() == 0 {
					t.Fatalf("stream exercised parked=%d splits=%d merges=%d, want all > 0", lazy.Parked(), lazy.Splits(), lazy.Merges())
				}
			})
		}
	}
}

// TestNewMicroClusterOwnsItsVectors: the mass an insert carries is the
// tree's scratch, so an object that opens a micro-cluster must copy out
// of it — two far-apart objects back to back stay two unit clusters at
// their own positions (the clustree twin of core's
// TestEntriesOwnTheirVectors).
func TestNewMicroClusterOwnsItsVectors(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Lambda = 0
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := []float64{0.1, 0.2}, []float64{0.9, 0.8}
	for i, x := range [][]float64{a, b} {
		if err := tree.Insert(x, float64(i), -1); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range tree.root.entries {
		if &e.cf.LS[0] == &tree.mass.LS[0] || &e.cf.SS[0] == &tree.mass.SS[0] {
			t.Fatalf("a micro-cluster's vectors alias the tree's insert scratch")
		}
	}
	mcs := tree.MicroClusters(0)
	if len(mcs) != 2 {
		t.Fatalf("%d micro-clusters, want 2", len(mcs))
	}
	for i, want := range [][]float64{a, b} {
		if mcs[i].Weight != 1 || mcs[i].Mean[0] != want[0] || mcs[i].Mean[1] != want[1] {
			t.Fatalf("micro-cluster %d is %v × %v, want 1 × %v", i, mcs[i].Weight, mcs[i].Mean, want)
		}
	}
}

// TestMergeClosestBringsPairForward: stored CFs add only at a common
// time, and a descent no longer leaves a leaf's entries at one — the
// merged pair must weigh what its two objects weigh at the tree's now.
func TestMergeClosestBringsPairForward(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Lambda = 0.1
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.root
	for i, x := range []float64{0.10, 0.11, 0.9} {
		leaf.entries = append(leaf.entries, &entry{cf: stats.CFOfAll([][]float64{{x}}, 1), buffer: stats.NewCF(1), ts: float64(10 * i)})
	}
	tree.now = 30
	tree.mergeClosest(leaf)
	if len(leaf.entries) != 2 {
		t.Fatalf("%d entries after the merge, want 2", len(leaf.entries))
	}
	merged := leaf.entries[0]
	want := math.Exp2(-0.1*30) + math.Exp2(-0.1*20)
	if merged.ts != 30 || !near(merged.cf.N, want, want) {
		t.Fatalf("merged pair weighs %v at %v, want %v at 30", merged.cf.N, merged.ts, want)
	}
	if far := leaf.entries[1]; far.ts != 20 || far.cf.N != 1 {
		t.Fatalf("the entry left alone was touched: weight %v at %v", far.cf.N, far.ts)
	}
}
