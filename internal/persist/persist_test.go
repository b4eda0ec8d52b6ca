package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/eval"
)

// trainClassifier builds a small forest classifier on a seeded synthetic
// data set.
func trainClassifier(t testing.TB, seed int64, opts core.ClassifierOptions) (*core.Classifier, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Synthetic(dataset.SyntheticSpec{
		Name: "persist", Size: 500, Classes: 3, Features: 4,
		ModesPerClass: 2, Spread: 0.08, Overlap: 0.15, Seed: seed,
	})
	if err != nil {
		t.Fatalf("synthetic: %v", err)
	}
	loader, _ := bulkload.ByName("emtopdown")
	clf, err := eval.TrainForest(ds, loader, core.DefaultConfig, opts)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return clf, ds
}

// buildMultiTree inserts a seeded labelled sample into a MultiTree.
func buildMultiTree(t testing.TB, seed int64, mopts core.MultiOptions) (*core.MultiTree, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := core.DefaultConfig(3)
	mt, err := core.NewMultiTree(cfg, []int{0, 1, 2}, mopts)
	if err != nil {
		t.Fatalf("new multi tree: %v", err)
	}
	xs := make([][]float64, 0, 400)
	for i := 0; i < 400; i++ {
		label := rng.Intn(3)
		x := []float64{
			float64(label) + 0.3*rng.NormFloat64(),
			-float64(label) + 0.3*rng.NormFloat64(),
			rng.NormFloat64(),
		}
		if err := mt.Insert(x, label); err != nil {
			t.Fatalf("insert: %v", err)
		}
		xs = append(xs, x)
	}
	return mt, xs
}

// roundTripClassifier encodes and decodes a classifier, failing the test
// on any error.
func roundTripClassifier(t *testing.T, clf *core.Classifier) *core.Classifier {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeClassifier(&buf, clf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeClassifier(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// TestClassifierRoundTripDigitIdentical is the snapshot property test:
// for random models across descent strategies, encode→decode→Classify
// must agree with the original digit for digit — predictions at every
// budget and the full float64 anytime density (OutlierScore), which is
// only possible if the derived inner entries are bit-identical.
func TestClassifierRoundTripDigitIdentical(t *testing.T) {
	strategies := []core.Strategy{core.DescentGlobal, core.DescentBFT, core.DescentDFT}
	budgets := []int{0, 3, 10, 40, -1}
	for seed := int64(1); seed <= 3; seed++ {
		for _, strat := range strategies {
			clf, ds := trainClassifier(t, seed, core.ClassifierOptions{Strategy: strat})
			got := roundTripClassifier(t, clf)
			if want, have := clf.Labels(), got.Labels(); len(want) != len(have) {
				t.Fatalf("seed %d %v: labels %v != %v", seed, strat, have, want)
			}
			for i := 0; i < 60; i++ {
				x := ds.X[i*7%ds.Len()]
				for _, b := range budgets {
					if w, h := clf.Classify(x, b), got.Classify(x, b); w != h {
						t.Fatalf("seed %d %v budget %d: prediction %d != %d", seed, strat, b, h, w)
					}
				}
				if w, h := clf.OutlierScore(x, 25), got.OutlierScore(x, 25); w != h {
					t.Fatalf("seed %d %v: outlier score %v != %v (derived entries differ)", seed, strat, h, w)
				}
			}
		}
	}
}

// TestClassifierRoundTripThenLearn checks the decoded model is live, not
// a read-only replica: online learning must keep working and both copies
// must stay in lockstep when fed the same labelled stream.
func TestClassifierRoundTripThenLearn(t *testing.T) {
	clf, ds := trainClassifier(t, 7, core.ClassifierOptions{})
	got := roundTripClassifier(t, clf)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		j := rng.Intn(ds.Len())
		if err := clf.Learn(ds.X[j], ds.Y[j]); err != nil {
			t.Fatalf("learn original: %v", err)
		}
		if err := got.Learn(ds.X[j], ds.Y[j]); err != nil {
			t.Fatalf("learn decoded: %v", err)
		}
	}
	for i := 0; i < 40; i++ {
		x := ds.X[rng.Intn(ds.Len())]
		if w, h := clf.Classify(x, 20), got.Classify(x, 20); w != h {
			t.Fatalf("after learning: prediction %d != %d", h, w)
		}
	}
}

// roundTripMultiTree encodes and decodes a multi-class tree as the set
// of it alone, failing the test on any error.
func roundTripMultiTree(t *testing.T, mt *core.MultiTree) *core.MultiTree {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeMultiTrees(&buf, []*core.MultiTree{mt}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeMultiTrees(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got[0]
}

// TestMultiTreeRoundTripDigitIdentical is the same property for the
// single-tree multi-class variant, across both variance-pooling modes.
func TestMultiTreeRoundTripDigitIdentical(t *testing.T) {
	for _, mopts := range []core.MultiOptions{
		{},
		{PooledVariance: true},
	} {
		mt, xs := buildMultiTree(t, 5, mopts)
		got := roundTripMultiTree(t, mt)
		opts := core.ClassifierOptions{}
		for i := 0; i < 80; i++ {
			x := xs[i*5%len(xs)]
			for _, b := range []int{0, 5, 20, -1} {
				w, err1 := mt.Classify(x, opts, b)
				h, err2 := got.Classify(x, opts, b)
				if err1 != nil || err2 != nil {
					t.Fatalf("classify: %v / %v", err1, err2)
				}
				if w != h {
					t.Fatalf("mopts %+v budget %d: prediction %d != %d", mopts, b, h, w)
				}
			}
			qw, _ := mt.NewQuery(x, opts)
			qh, _ := got.NewQuery(x, opts)
			for s := 0; s < 10; s++ {
				qw.Step()
				qh.Step()
			}
			sw, sh := qw.Scores(), qh.Scores()
			for c := range sw {
				if sw[c] != sh[c] {
					t.Fatalf("mopts %+v: score[%d] %v != %v", mopts, c, sh[c], sw[c])
				}
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("decoded tree invalid: %v", err)
		}
	}
}

// TestMultiTreesSetRoundTrip covers the sharded-set snapshot used by the
// serving subsystem.
func TestMultiTreesSetRoundTrip(t *testing.T) {
	var set []*core.MultiTree
	for seed := int64(1); seed <= 3; seed++ {
		mt, _ := buildMultiTree(t, seed, core.MultiOptions{})
		set = append(set, mt)
	}
	var buf bytes.Buffer
	if err := EncodeMultiTrees(&buf, set); err != nil {
		t.Fatalf("encode set: %v", err)
	}
	got, err := DecodeMultiTrees(&buf)
	if err != nil {
		t.Fatalf("decode set: %v", err)
	}
	if len(got) != len(set) {
		t.Fatalf("decoded %d shards, want %d", len(got), len(set))
	}
	for i := range set {
		if set[i].Len() != got[i].Len() {
			t.Fatalf("shard %d: size %d != %d", i, got[i].Len(), set[i].Len())
		}
		x := []float64{1, -1, 0}
		w, _ := set[i].Classify(x, core.ClassifierOptions{}, 15)
		h, _ := got[i].Classify(x, core.ClassifierOptions{}, 15)
		if w != h {
			t.Fatalf("shard %d: prediction %d != %d", i, h, w)
		}
	}
}

// TestDecodeRejectsCorruption exercises the error paths: bit rot in the
// payload, truncation, a foreign file, a future format version and the
// wrong kind must all be rejected with their sentinel errors before any model state is
// built.
func TestDecodeRejectsCorruption(t *testing.T) {
	clf, _ := trainClassifier(t, 9, core.ClassifierOptions{})
	var buf bytes.Buffer
	if err := EncodeClassifier(&buf, clf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	good := buf.Bytes()

	t.Run("bit rot", func(t *testing.T) {
		for _, off := range []int{16, 100, len(good) - 5} {
			bad := append([]byte(nil), good...)
			bad[off] ^= 0x40
			if _, err := DecodeClassifier(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
				t.Fatalf("flip at %d: got %v, want ErrChecksum", off, err)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 15, 40, len(good) - 1} {
			if _, err := DecodeClassifier(bytes.NewReader(good[:n])); !errors.Is(err, ErrTruncated) {
				t.Fatalf("truncate to %d: got %v, want ErrTruncated", n, err)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		copy(bad, "NOPE")
		if _, err := DecodeClassifier(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = Version + 1
		if _, err := DecodeClassifier(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		if _, err := DecodeMultiTrees(bytes.NewReader(good)); err == nil {
			t.Fatal("decoding a classifier snapshot as a multi-tree set succeeded")
		}
	})
}

// TestRetiredSnapshotsRefused: a snapshot framed as version 1 or 2 is
// refused by all three decoders — and the oracle — with ErrVersion, a
// well-formed version-3 frame of a retired kind (1, a forest of the
// retired per-class tree type; 2, one multi-class tree; 4, one ClusTree)
// with the wrong-kind error, a set whose tree holds a retired setting
// at a value other than the one it is fixed at by its decoder with an
// error naming the setting, and a cluster set whose retired pyramidal
// store slot is filled with an error naming the slot. The reader-based
// oracle refuses each with the same message.
func TestRetiredSnapshotsRefused(t *testing.T) {
	retired := map[string]string{
		"kind-3-entropy":         "entropy-weighted descent priority is retired",
		"kind-3-no-reinsert":     "ForcedReinsert false is retired",
		"kind-3-reference-epoch": "ReferenceEpoch 0 is retired, want 2",
		"kind-3-epanechnikov":    "Kernel epanechnikov is retired, want gaussian",
		"clusterset-leaf-6":      "MaxLeafEntries 6 is retired",
		"clusterset-store":       "pyramidal store slot is retired",
	}
	for _, s := range retiredSnapshots(t) {
		version, kind := binary.LittleEndian.Uint32(s.snap[4:]), payloadOf(s.snap)[0]
		for i := range codecs {
			c := &codecs[i]
			m, err := c.decode(bytes.NewReader(s.snap))
			if m != nil {
				t.Fatalf("%s: accepted by the %s decoder", s.name, c.name)
			}
			want := fmt.Sprintf("snapshot kind %d, want %d", kind, c.kind)
			if kind == c.kind {
				want = retired[s.name]
			}
			switch {
			case version != Version && !errors.Is(err, ErrVersion):
				t.Fatalf("%s: the %s decoder says %v, want ErrVersion", s.name, c.name, err)
			case version == Version && (err == nil || !strings.Contains(err.Error(), want)):
				t.Fatalf("%s: the %s decoder says %v, want %q", s.name, c.name, err, want)
			}
			if _, werr := c.oracle(bytes.NewReader(s.snap)); werr == nil || werr.Error() != err.Error() {
				t.Fatalf("%s: the %s decoder says %v, its oracle %v", s.name, c.name, err, werr)
			}
			checkAgainstOracle(t, c, s.snap)
		}
	}
}
