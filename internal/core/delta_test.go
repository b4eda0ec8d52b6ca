package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"bayestree/internal/stats"
)

// These tests pin the class-local insert delta (refreshClass, the
// mirror's one-slot repair, the patched query constants) to the
// from-scratch routines it stands in for — summarize, buildMultiSoA and
// a queryConsts rebuilt from nil — bit for bit, and guard what the
// in-place update relies on: every live entry owns its vectors.

// entryDiff names the first part of got that differs from want in any
// bit ("" when none does): rectangle or cluster features.
func entryDiff(got, want *MultiEntry) string {
	switch {
	case !bitsEqual(got.Rect.Lo, want.Rect.Lo) || !bitsEqual(got.Rect.Hi, want.Rect.Hi):
		return "Rect"
	case cfDiff(&got.Total, &want.Total):
		return "Total"
	case len(got.CFs) != len(want.CFs):
		return "class count"
	}
	for c := range want.CFs {
		if cfDiff(&got.CFs[c], &want.CFs[c]) {
			return fmt.Sprintf("CFs[%d]", c)
		}
	}
	return ""
}

func cfDiff(a, b *stats.CF) bool {
	return !bitsEqual([]float64{a.N}, []float64{b.N}) || !bitsEqual(a.LS, b.LS) || !bitsEqual(a.SS, b.SS)
}

// checkEntriesMatchSummarize asserts every entry of the tree is bitwise
// summarize of its child.
func checkEntriesMatchSummarize(t *testing.T, ctx string, mt *MultiTree) {
	t.Helper()
	var walk func(n *MultiNode)
	walk = func(n *MultiNode) {
		for i := range n.entries {
			e := &n.entries[i]
			want := mt.summarize(e.Child)
			if d := entryDiff(e, &want); d != "" {
				t.Fatalf("%s: entry %s differs from summarize(child)", ctx, d)
			}
			walk(e.Child)
		}
	}
	walk(mt.root)
}

// checkQueryStateMatchesRebuild asserts the cached query constants —
// patched or not — are bitwise what a rebuild from nil produces, and
// leaves the cached state in place so later inserts keep patching it.
func checkQueryStateMatchesRebuild(t *testing.T, ctx string, mt *MultiTree) {
	t.Helper()
	got := mt.queryState.Load()
	if got == nil {
		return
	}
	mt.queryState.Store(nil)
	want := mt.queryConsts()
	mt.queryState.Store(got)
	if d := entryDiff(&got.root, &want.root); d != "" {
		t.Fatalf("%s: cached root summary: %s differs from a rebuild", ctx, d)
	}
	if got.root.Child != want.root.Child {
		t.Fatalf("%s: cached root child differs from a rebuild", ctx)
	}
	if !bitsEqual(got.logNc, want.logNc) {
		t.Fatalf("%s: cached logNc %v, rebuilt %v", ctx, got.logNc, want.logNc)
	}
	for c := range want.bw {
		if want.root.CFs[c].N > 0 {
			g, w := &got.frozen[c], &want.frozen[c]
			if !bitsEqual(g.Mean, w.Mean) || !bitsEqual(g.InvVar, w.InvVar) ||
				!bitsEqual([]float64{g.LogN, g.LogNorm()}, []float64{w.LogN, w.LogNorm()}) {
				t.Fatalf("%s: cached root Gaussian of class %d differs from a rebuild", ctx, c)
			}
		}
		if !bitsEqual(got.bw[c], want.bw[c]) {
			t.Fatalf("%s: cached bandwidths of class %d differ from a rebuild", ctx, c)
		}
		if !reflect.DeepEqual(got.kern[c], want.kern[c]) {
			t.Fatalf("%s: cached kernel of class %d differs from a rebuild", ctx, c)
		}
	}
}

// TestInsertDeltaMatchesSummarize is the delta's property: over seeded
// runs — continuous and tie-heavy coordinates (both zeros among them),
// PooledVariance × decay, three node capacities, two
// to four classes, two runs of decay steps in mid-run — after
// every insert each entry is bitwise summarize(child), the cached query
// constants are bitwise a rebuild from nil, and the mirror the insert
// repaired is block for block a fresh build.
func TestInsertDeltaMatchesSummarize(t *testing.T) {
	narrow := smallConfig(3)
	narrow.MinFanout, narrow.MaxFanout, narrow.MinLeaf, narrow.MaxLeaf = 1, 2, 1, 2
	configs := []Config{narrow, smallConfig(3), DefaultConfig(3)}
	for seed := 1; seed <= 240; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		mo := MultiOptions{PooledVariance: seed&1 != 0}
		decay, tied := seed&4 != 0, seed&8 != 0
		nc := 2 + seed%3
		labels := make([]int, nc)
		for c := range labels {
			labels[c] = 10 * c
		}
		mt, err := NewMultiTree(configs[seed%3], labels, mo)
		if err != nil {
			t.Fatal(err)
		}
		if decay {
			if err := mt.EnableDecay(DecayOptions{Lambda: 0.2, MinWeight: 0.05}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 70; i++ {
			ctx := fmt.Sprintf("seed %d insert %d", seed, i)
			// What a query would find missing after a structural
			// mutation, so that every insert repairs and patches.
			mt.mirror()
			if mt.size > 0 {
				mt.queryConsts()
			}
			x := []float64{splitCoord(rng, tied), splitCoord(rng, tied), splitCoord(rng, tied)}
			if err := mt.Insert(x, labels[rng.Intn(nc)]); err != nil {
				t.Fatal(err)
			}
			checkEntriesMatchSummarize(t, ctx, mt)
			checkQueryStateMatchesRebuild(t, ctx, mt)
			checkMirrorIsFreshBuild(t, ctx, mt)
			switch {
			case decay && i == 25:
				for range 2 {
					mt.AdvanceDecay()
				}
			case decay && i == 45:
				for range 10 {
					mt.AdvanceDecay()
				}
			}
		}
		if err := mt.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// rebuiltCopy reassembles a deep copy of the tree through the Rebuild*
// constructors, the way a snapshot decoder does: leaves copied, inner
// entries derived.
func rebuiltCopy(t *testing.T, mt *MultiTree) *MultiTree {
	t.Helper()
	var copyNode func(n *MultiNode) *MultiNode
	copyNode = func(n *MultiNode) *MultiNode {
		if n.leaf {
			pts := make([]LabeledPoint, len(n.points))
			for i, p := range n.points {
				pts[i] = LabeledPoint{X: append([]float64(nil), p.X...), Label: p.Label}
			}
			var ws []float64
			if n.weights != nil {
				ws = append([]float64(nil), n.weights...)
			}
			leaf, err := RebuildMultiLeafWeighted(pts, ws)
			if err != nil {
				t.Fatal(err)
			}
			return leaf
		}
		ents := make([]MultiEntry, len(n.entries))
		for i := range n.entries {
			ents[i].Child = copyNode(n.entries[i].Child)
		}
		return RebuildMultiInner(ents)
	}
	out, derive, err := RebuildMultiTree(mt.cfg, mt.mopts, mt.labels, copyNode(mt.root), mt.counts, mt.balanced)
	if err != nil {
		t.Fatal(err)
	}
	derive()
	if err := out.RestoreDecayState(mt.decay, mt.epoch); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkEntriesOwnTheirVectors asserts no backing array is referenced by
// two vectors of the tree's live entries or of the cached root summary
// — what refreshClass's in-place writes rely on.
func checkEntriesOwnTheirVectors(t *testing.T, ctx string, mt *MultiTree) {
	t.Helper()
	// A vector is named by its entry, its class (−1: the entry's own)
	// and its role; names are only formatted for a failure.
	type name struct {
		entry, class int
		role         string
	}
	owner := map[*float64]name{}
	claim := func(v []float64, who name) {
		if len(v) == 0 {
			return
		}
		if prev, taken := owner[&v[0]]; taken {
			t.Fatalf("%s: %+v shares its backing array with %+v", ctx, who, prev)
		}
		owner[&v[0]] = who
	}
	entries := 0
	claimEntry := func(e *MultiEntry) {
		id := entries
		entries++
		claim(e.Rect.Lo, name{id, -1, "Rect.Lo"})
		claim(e.Rect.Hi, name{id, -1, "Rect.Hi"})
		claim(e.Total.LS, name{id, -1, "Total.LS"})
		claim(e.Total.SS, name{id, -1, "Total.SS"})
		for c := range e.CFs {
			claim(e.CFs[c].LS, name{id, c, "LS"})
			claim(e.CFs[c].SS, name{id, c, "SS"})
		}
	}
	var walk func(n *MultiNode)
	walk = func(n *MultiNode) {
		for i := range n.entries {
			claimEntry(&n.entries[i])
			walk(n.entries[i].Child)
		}
	}
	walk(mt.root)
	if st := mt.queryState.Load(); st != nil {
		claimEntry(&st.root)
	}
}

// TestEntriesOwnTheirVectors walks trees grown through every place
// entry values are copied — node splits (gather), the decay sweep's
// collapse and root-chain collapse, and a rebuild from decoded parts —
// interleaved at random with split-free inserts and queries, and checks
// vector ownership after each step.
func TestEntriesOwnTheirVectors(t *testing.T) {
	narrow := smallConfig(3)
	narrow.MinFanout, narrow.MaxFanout, narrow.MinLeaf, narrow.MaxLeaf = 1, 2, 1, 2
	for seed := 1; seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		mo := MultiOptions{PooledVariance: seed&1 != 0}
		mt, err := NewMultiTree([]Config{narrow, smallConfig(3)}[seed%2], []int{0, 1, 2}, mo)
		if err != nil {
			t.Fatal(err)
		}
		if err := mt.EnableDecay(DecayOptions{Lambda: 0.25, MinWeight: 0.1}); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 150; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(20); {
			case op == 0:
				for range 1 + rng.Intn(6) {
					mt.AdvanceDecay()
				}
			case op == 1:
				mt = rebuiltCopy(t, mt)
			case op < 5 && mt.Len() > 0:
				if _, err := mt.Classify([]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}, ClassifierOptions{}, 4); err != nil {
					t.Fatal(err)
				}
			default:
				if err := mt.Insert([]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}, rng.Intn(3)); err != nil {
					t.Fatal(err)
				}
			}
			checkEntriesOwnTheirVectors(t, ctx, mt)
			checkEntriesMatchSummarize(t, ctx, mt)
			checkQueryStateMatchesRebuild(t, ctx, mt)
		}
	}
}

// deepTree grows a tree of the given class count whose leaves sit at
// least minDepth levels below the root, with the mirror published and
// the query constants cached.
func deepTree(t *testing.T, nc, minDepth int, rng *rand.Rand) *MultiTree {
	t.Helper()
	labels := make([]int, nc)
	for c := range labels {
		labels[c] = c
	}
	cfg := smallConfig(4)
	cfg.MinFanout, cfg.MaxFanout = 2, 4
	mt, err := NewMultiTree(cfg, labels, MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	depth := func() int {
		d := 0
		for n := mt.root; !n.leaf; n = n.entries[0].Child {
			d++
		}
		return d
	}
	for i := 0; depth() < minDepth || i < 40*nc; i++ {
		if err := mt.Insert(randPoints(rng, 1, 4)[0], labels[i%nc]); err != nil {
			t.Fatal(err)
		}
	}
	mt.RefreshSoA()
	mt.queryConsts()
	return mt
}

// splitFreeInsert inserts random points — each into a tree whose query
// constants are cached, as between two reads of a served model, and
// each repairing the published mirror — until one split nothing (the
// node count stayed), and returns that insert's allocations.
func splitFreeInsert(t *testing.T, mt *MultiTree, rng *rand.Rand) float64 {
	t.Helper()
	for {
		x, label := randPoints(rng, 1, 4)[0], mt.labels[rng.Intn(len(mt.labels))]
		nodes := mt.CountNodes()
		mt.queryConsts()
		n := mallocs(func() {
			if err := mt.Insert(x, label); err != nil {
				t.Fatal(err)
			}
		})
		if mt.CountNodes() == nodes {
			return n
		}
	}
}

// mallocs counts the heap allocations of one call of f, as
// testing.AllocsPerRun does but without its warm-up call: the calls
// measured here are each the first of their kind.
func mallocs(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// TestSplitFreeInsertAllocs: a split-free insert and its mirror repair
// allocate a small constant — the stored copy of the point, now and then
// a larger class index array for the leaf's mirror, and, where its class
// first appears in an entry, that class's vectors and mirror row; the
// patched class's query constants are rewritten in place — whatever the
// number of classes (2 → 26) and the depth of the tree. 26 classes,
// where classes appear most often, measure 4.1–4.3, against 4.8 while
// every insert refilled the leaf's whole mirror block. Under the race
// detector slices.Grow allocates its extension apart from the grown
// block, so every mirror block counts twice there: 26 classes measure
// 4.8–5.1.
func TestSplitFreeInsertAllocs(t *testing.T) {
	const rounds = 50
	limit := 4.5
	if raceEnabled {
		limit = 5.5
	}
	for _, tc := range []struct{ nc, depth int }{{2, 2}, {26, 2}, {2, 5}, {26, 5}} {
		rng := rand.New(rand.NewSource(int64(100*tc.nc + tc.depth)))
		mt := deepTree(t, tc.nc, tc.depth, rng)
		var total float64
		for i := 0; i < rounds; i++ {
			total += splitFreeInsert(t, mt, rng)
		}
		got := total / rounds
		t.Logf("%d classes, depth ≥ %d: %.1f allocations per split-free insert", tc.nc, tc.depth, got)
		if got > limit {
			t.Errorf("%d classes, depth ≥ %d: a split-free insert allocates %.1f times, want ≤ %.1f", tc.nc, tc.depth, got, limit)
		}
	}
}

// TestFirstReadAfterInsertAllocs: the first query after a split-free
// insert finds its constants patched, not dropped — it allocates no more
// than a query with no insert before it (+ ≤ 8).
func TestFirstReadAfterInsertAllocs(t *testing.T) {
	const rounds = 50
	rng := rand.New(rand.NewSource(7))
	mt := deepTree(t, 10, 3, rng)
	q := randPoints(rng, 1, 4)[0]
	read := func() {
		if _, err := mt.Classify(q, ClassifierOptions{}, 8); err != nil {
			t.Fatal(err)
		}
	}
	read()
	var steady, afterInsert float64
	for i := 0; i < rounds; i++ {
		steady += mallocs(read)
	}
	for i := 0; i < rounds; i++ {
		splitFreeInsert(t, mt, rng)
		afterInsert += mallocs(read)
	}
	steady, afterInsert = steady/rounds, afterInsert/rounds
	t.Logf("%.1f allocations per read after a split-free insert, %.1f after none", afterInsert, steady)
	if afterInsert > steady+8 {
		t.Errorf("first read after an insert allocates %.1f times, a read after none %.1f", afterInsert, steady)
	}
}
