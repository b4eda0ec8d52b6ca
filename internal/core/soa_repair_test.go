package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkMirrorIsFreshBuild asserts the published mirror is exactly what
// a whole build of the tree as it stands would produce: one live mirror
// node per tree node (none leaked, none stale), the root at index 0,
// every block bitwise equal to the fresh build's, children wired to the
// mirror nodes of the tree's children, and every table row either live
// or on the free list.
func checkMirrorIsFreshBuild(t *testing.T, ctx string, mt *MultiTree) {
	t.Helper()
	s := mt.soa.Load()
	if s == nil {
		t.Fatalf("%s: no mirror published", ctx)
	}
	fresh := buildMultiSoA(mt)
	if len(s.index) != mt.CountNodes() || len(fresh.index) != len(s.index) {
		t.Fatalf("%s: %d live mirror nodes, fresh build %d, tree has %d nodes", ctx, len(s.index), len(fresh.index), mt.CountNodes())
	}
	if s.index[mt.root] != 0 {
		t.Fatalf("%s: root mirrored at index %d", ctx, s.index[mt.root])
	}
	if len(s.nodes) != len(s.index)+len(s.free) {
		t.Fatalf("%s: %d table rows for %d live + %d free", ctx, len(s.nodes), len(s.index), len(s.free))
	}
	owner := make(map[int32]*MultiNode, len(s.index))
	for n, idx := range s.index {
		owner[idx] = n
	}
	for _, idx := range s.free {
		if owner[idx] != nil || idx == 0 {
			t.Fatalf("%s: free index %d is in use", ctx, idx)
		}
	}
	for n, fi := range fresh.index {
		idx, ok := s.index[n]
		if !ok {
			t.Fatalf("%s: tree node has no mirror node", ctx)
		}
		got, want := &s.nodes[idx], &fresh.nodes[fi]
		if got.node != n || want.node != n {
			t.Fatalf("%s: node %d does not point at the tree node it mirrors", ctx, idx)
		}
		if got.leaf != want.leaf || got.leaf != n.leaf {
			t.Fatalf("%s: node %d: leaf %v, fresh build %v, tree node %v", ctx, idx, got.leaf, want.leaf, n.leaf)
		}
		if got.leaf {
			if len(want.cls) != len(n.points) {
				t.Fatalf("%s: fresh leaf holds %d class indices, tree leaf %d points", ctx, len(want.cls), len(n.points))
			}
			if !slices.Equal(got.cls, want.cls) {
				t.Fatalf("%s: leaf %d: class indices %v, fresh build %v", ctx, idx, got.cls, want.cls)
			}
			if (got.logW == nil) != (want.logW == nil) || !bitsEqual(got.logW, want.logW) {
				t.Fatalf("%s: leaf %d: log weights %v, fresh build %v", ctx, idx, got.logW, want.logW)
			}
			continue
		}
		for name, pair := range map[string][2][]float64{
			"means": {got.means, want.means}, "invVar": {got.invVar, want.invVar},
			"logNorm": {got.logNorm, want.logNorm}, "logN": {got.logN, want.logN},
		} {
			if !bitsEqual(pair[0], pair[1]) {
				t.Fatalf("%s: inner node %d: %s differs from the fresh build's", ctx, idx, name)
			}
		}
		if len(got.child) != len(n.entries) {
			t.Fatalf("%s: inner node %d: %d children, tree node has %d", ctx, idx, len(got.child), len(n.entries))
		}
		for e := range n.entries {
			if owner[got.child[e]] != n.entries[e].Child {
				t.Fatalf("%s: inner node %d: child %d points at the wrong mirror node", ctx, idx, e)
			}
		}
	}
}

// TestSoARepairMatchesFreshBuild is the path-local repair property:
// seeded interleavings of inserts from an empty tree — through root
// splits and multi-level splits, into decayed (weighted) leaves, and
// with a decay sweep in the middle — leave, after every single insert,
// a mirror that equals a fresh whole build block for block and, when
// queried, answers bitwise like the oracle at every budget up to
// exhaustion — and entries that are bitwise summarize of their children
// and cached query constants bitwise a rebuild's (the queries below
// cache them, the next inserts patch them). Every insert is one repair
// (a patch); only decay and epoch changes drop the mirror, and the
// query after them builds it whole.
func TestSoARepairMatchesFreshBuild(t *testing.T) {
	// The narrow config splits on every other insert and cascades to
	// the root often; the small one mixes split-free inserts in.
	narrow := smallConfig(3)
	narrow.MinFanout, narrow.MaxFanout, narrow.MinLeaf, narrow.MaxLeaf = 1, 2, 1, 2
	for ci, cfg := range []Config{narrow, smallConfig(3), DefaultConfig(3)} {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(100*int64(ci) + seed))
			mo := MultiOptions{PooledVariance: (ci+int(seed))%2 == 1}
			mt, err := NewMultiTree(cfg, []int{0, 1, 2}, mo)
			if err != nil {
				t.Fatal(err)
			}
			point := func() []float64 {
				return []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			}
			// query compares mirror and oracle, building the mirror if a
			// structural mutation dropped it.
			query := func(ctx string) {
				t.Helper()
				for _, opts := range []ClassifierOptions{{}, {Strategy: DescentBFT, Priority: PriorityGeometric}} {
					compareMultiQuery(t, ctx, mt, point(), opts, -1)
				}
			}
			// inserts checks every insert on its own; a query follows one
			// pile in two, so repairs also run over constants no query
			// has re-cached.
			inserts := func(ctx string, rounds, pile int) {
				t.Helper()
				r0, p0, _ := mt.SoACounters()
				n := 0
				for i := 0; i < rounds; i++ {
					for j := 1 + rng.Intn(pile); j > 0; j-- {
						if err := mt.Insert(point(), rng.Intn(3)); err != nil {
							t.Fatal(err)
						}
						n++
						ctx := fmt.Sprintf("config %d seed %d %s (size %d)", ci, seed, ctx, mt.Len())
						checkEntriesMatchSummarize(t, ctx, mt)
						checkQueryStateMatchesRebuild(t, ctx, mt)
						checkMirrorIsFreshBuild(t, ctx, mt)
						if err := mt.Validate(); err != nil {
							t.Fatalf("%s: %v", ctx, err)
						}
					}
					if i%2 == 0 {
						query(ctx)
					}
				}
				if r1, p1, _ := mt.SoACounters(); r1 != r0 || p1 != p0+int64(n) {
					t.Fatalf("config %d seed %d %s: %d inserts made %d whole builds and %d repairs", ci, seed, ctx, n, r1-r0, p1-p0)
				}
			}

			mt.RefreshSoA() // a mirror of the empty tree: repaired from the first point on
			inserts("one insert per query", 40, 1)
			inserts("piled inserts", 40, 4)

			// Decay: a sweep weights every leaf, so the inserts after it
			// land in weighted leaves and weighted leaves split.
			if err := mt.EnableDecay(DecayOptions{Lambda: 0.2, MinWeight: 0.05}); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				mt.AdvanceDecay()
			}
			query("two decay steps")
			inserts("weighted leaves", 20, 3)
			for range 12 {
				mt.AdvanceDecay()
			}
			query("twelve decay steps")
			inserts("after the sweeps", 15, 3)
			// Built over the empty tree, after EnableDecay and after each
			// run of decay steps; dropped by EnableDecay and the first step
			// of the second run (the other structural mutations found no
			// mirror).
			if r, _, inv := mt.SoACounters(); r != 3 || inv != 2 {
				t.Fatalf("config %d seed %d: %d whole builds, %d drops; want 3 and 2", ci, seed, r, inv)
			}
		}
	}
}
