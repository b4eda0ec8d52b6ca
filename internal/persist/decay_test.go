package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"bayestree/internal/core"
)

// buildDecayedMultiTree constructs a multi-class tree that has lived
// through the decay lifecycle: old mass inserted, three decay steps
// (each an epoch advanced and swept), new mass inserted, another step
// and more mass — so the snapshot must carry non-trivial weights and a
// non-zero epoch.
func buildDecayedMultiTree(t testing.TB) *core.MultiTree {
	t.Helper()
	cfg := core.Config{Dim: 3, MinFanout: 2, MaxFanout: 5, MinLeaf: 2, MaxLeaf: 6}
	mt, err := core.NewMultiTree(cfg, []int{0, 1, 2}, core.MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.EnableDecay(core.DecayOptions{Lambda: 0.5, MinWeight: 0.05}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	insert := func(n int, shift float64) {
		for i := 0; i < n; i++ {
			x := []float64{shift + 0.2*rng.Float64(), rng.Float64(), rng.Float64()}
			if err := mt.Insert(x, i%3); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(80, 0.0)
	for range 3 {
		mt.AdvanceDecay()
	}
	insert(60, 0.6)
	mt.AdvanceDecay()
	insert(20, 0.8)
	return mt
}

// probeScores fully refines a query per probe and returns the raw
// per-class scores — the digit-identity oracle.
func probeScores(t *testing.T, mt *core.MultiTree, probes [][]float64) [][]float64 {
	t.Helper()
	out := make([][]float64, len(probes))
	for i, x := range probes {
		q, err := mt.NewQuery(x, core.ClassifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for q.Step() {
		}
		out[i] = q.Scores()
	}
	return out
}

// A decayed model must reload digit-identically: same decay state, same
// effective weight, and bit-equal query scores.
func TestDecayedMultiTreeRoundTripDigitIdentical(t *testing.T) {
	mt := buildDecayedMultiTree(t)
	got := roundTripMultiTree(t, mt)

	wantOpts, wantEpoch := mt.DecayState()
	gotOpts, gotEpoch := got.DecayState()
	if gotOpts != wantOpts || gotEpoch != wantEpoch {
		t.Fatalf("decay state %+v e%d, want %+v e%d", gotOpts, gotEpoch, wantOpts, wantEpoch)
	}
	if got.Weight() != mt.Weight() {
		t.Fatalf("weight %v, want %v", got.Weight(), mt.Weight())
	}
	if got.Len() != mt.Len() {
		t.Fatalf("size %d, want %d", got.Len(), mt.Len())
	}

	rng := rand.New(rand.NewSource(12))
	probes := make([][]float64, 40)
	for i := range probes {
		probes[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	want := probeScores(t, mt, probes)
	have := probeScores(t, got, probes)
	for i := range probes {
		for c := range want[i] {
			if want[i][c] != have[i][c] {
				t.Fatalf("probe %d class %d: score %v != %v (not digit-identical)",
					i, c, have[i][c], want[i][c])
			}
		}
	}

	// The reloaded model keeps decaying: two more decay steps must
	// agree with the original put through the same motions.
	for range 2 {
		mt.AdvanceDecay()
		got.AdvanceDecay()
	}
	if got.Weight() != mt.Weight() || got.Len() != mt.Len() {
		t.Fatalf("post-reload sweep diverged: weight %v/%v size %d/%d",
			got.Weight(), mt.Weight(), got.Len(), mt.Len())
	}
}

// decayedForest is a decayed two-class forest that has lived through
// pruning sweeps, collapsed subtrees and orphan reinsertion.
func decayedForest(t testing.TB) *core.Classifier {
	t.Helper()
	cfg := core.Config{Dim: 2, MinFanout: 2, MaxFanout: 4, MinLeaf: 2, MaxLeaf: 5}
	trees := make([]*core.MultiTree, 2)
	rng := rand.New(rand.NewSource(13))
	var swept core.SweepStats
	for c := range trees {
		tr, err := core.NewMultiTree(cfg, []int{c}, core.MultiOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.EnableDecay(core.DecayOptions{Lambda: 1, MinWeight: 0.1}); err != nil {
			t.Fatal(err)
		}
		insert := func(n int) {
			for i := 0; i < n; i++ {
				if err := tr.Insert([]float64{float64(c)*0.5 + 0.3*rng.Float64(), rng.Float64()}, c); err != nil {
					t.Fatal(err)
				}
			}
		}
		insert(120)
		for range 2 {
			swept.Add(tr.AdvanceDecay())
		}
		insert(20 + 10*c)
		for round := 0; round < 4; round++ {
			swept.Add(tr.AdvanceDecay())
			insert(7 + 3*c)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		trees[c] = tr
	}
	if swept.PointsPruned == 0 || swept.SubtreesPruned == 0 || swept.SubtreesCollapsed == 0 || swept.Reinserted == 0 {
		t.Fatalf("the sweeps did not prune, collapse and reinsert: %+v", swept)
	}
	clf, err := core.NewClassifier(trees, core.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// learnedAfterSweep is decayedForest decayed one more step (an epoch
// advanced and swept) and then taught 5 objects: its class counts are masses the sweep rescaled plus the
// weights learned since, which no walk of the leaves reproduces bit for
// bit — the snapshot must carry them.
func learnedAfterSweep(t testing.TB) *core.Classifier {
	clf := decayedForest(t)
	clf.AdvanceDecay()
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 5; i++ {
		if err := clf.Learn([]float64{rng.Float64(), rng.Float64()}, i%2); err != nil {
			t.Fatal(err)
		}
	}
	return clf
}

// A decayed per-class forest snapshot round-trips digit-identically
// through the classifier encoder, including priors from decayed masses
// and every inner summary the decode derives (bitwise the source
// forest's): the decoded forest's posteriors equal the live one's after
// every step. Its bytes are pinned, so a change to the order of any
// insert or sweep shows in a hash, as TestGoldenSnapshot shows it for
// MultiTree.
func TestDecayedClassifierRoundTripDigitIdentical(t *testing.T) {
	for _, row := range []struct {
		name string
		clf  *core.Classifier
		size int
		sum  string
	}{
		{"decayed", decayedForest(t), 2741, "bf26e605361092a5ee1e4cd42d4d8959d877947f5c1e4a82fef4818df9993135"},
		{"learned-after-sweep", learnedAfterSweep(t), 2347, "599d1158e2f56a7cf677849e894a3a29b239b6f81d0b5ed619c57d759f10e379"},
	} {
		var buf bytes.Buffer
		if err := EncodeClassifier(&buf, row.clf); err != nil {
			t.Fatal(err)
		}
		snap := buf.Bytes()
		sum := sha256.Sum256(snap)
		if got := hex.EncodeToString(sum[:]); len(snap) != row.size || got != row.sum {
			t.Errorf("%s: snapshot is %d bytes, sha256 %s; want %d bytes, %s", row.name, len(snap), got, row.size, row.sum)
		}
		got, err := DecodeClassifier(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		if at := summaryDiff(row.clf, got); at != "" {
			t.Fatalf("%s: decode derived an inner summary that differs from the source's at %s", row.name, at)
		}
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 60; i++ {
			x := []float64{rng.Float64(), rng.Float64()}
			qa, qb := row.clf.NewQuery(x), got.NewQuery(x)
			for step := 0; ; step++ {
				pa, pb := qa.Posteriors(), qb.Posteriors()
				for c := range pa {
					if pa[c] != pb[c] {
						t.Fatalf("%s probe %d step %d class %d: posterior %v != %v", row.name, i, step, c, pb[c], pa[c])
					}
				}
				if a, b := qa.Step(), qb.Step(); a != b {
					t.Fatalf("%s probe %d step %d: one query exhausted before the other", row.name, i, step)
				} else if !a {
					break
				}
			}
			qa.Close()
			qb.Close()
		}
	}
}

// Corrupt leaf weights (non-positive) must be rejected at rebuild, not
// silently loaded.
func TestCorruptLeafWeightRejected(t *testing.T) {
	if _, err := core.RebuildMultiLeafWeighted([]core.LabeledPoint{{X: []float64{1, 2}}}, []float64{-0.5}); err == nil {
		t.Fatal("negative leaf weight accepted")
	}
	if _, err := core.RebuildMultiLeafWeighted([]core.LabeledPoint{{X: []float64{1, 2}}}, []float64{1, 1}); err == nil {
		t.Fatal("mismatched weight vector length accepted")
	}
	if _, err := core.RebuildMultiLeafWeighted([]core.LabeledPoint{{X: []float64{1}, Label: 0}}, []float64{0}); err == nil {
		t.Fatal("zero multi leaf weight accepted")
	}
}
