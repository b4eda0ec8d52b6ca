package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"bayestree/internal/clustree"
)

// buildClusTree grows a decayed clustering tree under budget pressure:
// parked objects, hitchhikers, splits and lazy decay all present, so a
// round trip exercises every record field.
func buildClusTree(t testing.TB, seed int64, lambda float64) *clustree.Tree {
	t.Helper()
	cfg := clustree.DefaultConfig(3)
	cfg.Lambda = lambda
	tree, err := clustree.New(cfg)
	if err != nil {
		t.Fatalf("new clustree: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1200; i++ {
		src := float64(i % 3)
		x := []float64{
			src/3 + 0.05*rng.NormFloat64(),
			1 - src/3 + 0.05*rng.NormFloat64(),
			0.5 + 0.05*rng.NormFloat64(),
		}
		budget := -1
		if i%4 != 0 {
			budget = 1 + i%2
		}
		if err := tree.Insert(x, float64(i+1), budget); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tree.Parked() == 0 || tree.Splits() == 0 {
		t.Fatalf("tree did not exercise pressure paths: parked=%d splits=%d", tree.Parked(), tree.Splits())
	}
	return tree
}

// mustEqualMicro asserts two micro-cluster sets are digit-identical.
func mustEqualMicro(t *testing.T, want, got []clustree.MicroCluster) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("micro-cluster count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].CF.N != got[i].CF.N {
			t.Fatalf("micro %d: N %v != %v", i, got[i].CF.N, want[i].CF.N)
		}
		for k := range want[i].CF.LS {
			if want[i].CF.LS[k] != got[i].CF.LS[k] || want[i].CF.SS[k] != got[i].CF.SS[k] {
				t.Fatalf("micro %d dim %d: CF floats diverged", i, k)
			}
		}
	}
}

// TestClusTreeRoundTripDigitIdentical is the clustering snapshot
// property test: encode→decode of a one-tree set must reproduce
// micro-clusters, weight, counters and configuration bit for bit, for
// both decayed and undecayed trees — including outstanding lazy decay,
// which resumes at the exact stored timestamps.
func TestClusTreeRoundTripDigitIdentical(t *testing.T) {
	for _, lambda := range []float64{0, 0.003} {
		tree := buildClusTree(t, 31, lambda)
		var buf bytes.Buffer
		if err := EncodeClusterSet(&buf, ClusterSet{Trees: []*clustree.Tree{tree}}); err != nil {
			t.Fatalf("encode: %v", err)
		}
		set, err := DecodeClusterSet(&buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		got := set.Trees[0]
		if got.Config() != tree.Config() {
			t.Fatalf("config %+v != %+v", got.Config(), tree.Config())
		}
		if got.Now() != tree.Now() {
			t.Fatalf("now %v != %v", got.Now(), tree.Now())
		}
		i1, p1, m1, s1 := tree.Counters()
		i2, p2, m2, s2 := got.Counters()
		if i1 != i2 || p1 != p2 || m1 != m2 || s1 != s2 {
			t.Fatalf("counters (%d,%d,%d,%d) != (%d,%d,%d,%d)", i2, p2, m2, s2, i1, p1, m1, s1)
		}
		mustEqualMicro(t, tree.MicroClusters(0), got.MicroClusters(0))
		if tree.Weight() != got.Weight() {
			t.Fatalf("weight %v != %v", got.Weight(), tree.Weight())
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("decoded tree invalid: %v", err)
		}
		// The decoded tree is live: decay resumes from the stored
		// timestamps and both copies stay in lockstep.
		x := []float64{0.2, 0.8, 0.5}
		ts := tree.Now() + 50
		if err := tree.Insert(x, ts, -1); err != nil {
			t.Fatalf("insert original: %v", err)
		}
		if err := got.Insert(x, ts, -1); err != nil {
			t.Fatalf("insert decoded: %v", err)
		}
		mustEqualMicro(t, tree.MicroClusters(0), got.MicroClusters(0))
	}
}

// TestClusterSetRoundTrip covers the sharded clustering snapshot: trees
// plus the logical clock.
func TestClusterSetRoundTrip(t *testing.T) {
	var trees []*clustree.Tree
	for seed := int64(1); seed <= 3; seed++ {
		trees = append(trees, buildClusTree(t, seed, 0.002))
	}
	var buf bytes.Buffer
	if err := EncodeClusterSet(&buf, ClusterSet{Trees: trees, Clock: 3600}); err != nil {
		t.Fatalf("encode set: %v", err)
	}
	got, err := DecodeClusterSet(&buf)
	if err != nil {
		t.Fatalf("decode set: %v", err)
	}
	if len(got.Trees) != 3 || got.Clock != 3600 {
		t.Fatalf("decoded %d trees clock %d", len(got.Trees), got.Clock)
	}
	for i := range trees {
		mustEqualMicro(t, trees[i].MicroClusters(0), got.Trees[i].MicroClusters(0))
	}
}

// TestClusTreeDecodeRejectsCorruption exercises the error paths of the
// cluster set — of one tree, and of two — with
// the same table the classifier snapshots get: bit rot, truncation,
// foreign files, future versions and kind confusion must all fail
// loudly before any tree state is built.
func TestClusTreeDecodeRejectsCorruption(t *testing.T) {
	tree := buildClusTree(t, 77, 0.001)
	var single, set bytes.Buffer
	if err := EncodeClusterSet(&single, ClusterSet{Trees: []*clustree.Tree{tree}, Clock: 5}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	pair := ClusterSet{Trees: []*clustree.Tree{tree, buildClusTree(t, 78, 0)}, Clock: 2400}
	if err := EncodeClusterSet(&set, pair); err != nil {
		t.Fatalf("encode set: %v", err)
	}

	decode := func(r *bytes.Reader) error { _, err := DecodeClusterSet(r); return err }
	for _, tc := range []struct {
		name string
		good []byte
	}{
		{"tree", single.Bytes()},
		{"set", set.Bytes()},
	} {
		t.Run(tc.name+"/bit rot", func(t *testing.T) {
			for _, off := range []int{17, 60, len(tc.good) - 6} {
				bad := append([]byte(nil), tc.good...)
				bad[off] ^= 0x20
				if err := decode(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
					t.Fatalf("flip at %d: got %v, want ErrChecksum", off, err)
				}
			}
		})
		t.Run(tc.name+"/truncated", func(t *testing.T) {
			for _, n := range []int{0, 3, 15, 60, len(tc.good) - 1} {
				if err := decode(bytes.NewReader(tc.good[:n])); !errors.Is(err, ErrTruncated) {
					t.Fatalf("truncate to %d: got %v, want ErrTruncated", n, err)
				}
			}
		})
		t.Run(tc.name+"/bad magic", func(t *testing.T) {
			bad := append([]byte(nil), tc.good...)
			copy(bad, "NOPE")
			if err := decode(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
				t.Fatalf("got %v, want ErrBadMagic", err)
			}
		})
		t.Run(tc.name+"/future version", func(t *testing.T) {
			bad := append([]byte(nil), tc.good...)
			bad[4] = Version + 1
			if err := decode(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
				t.Fatalf("got %v, want ErrVersion", err)
			}
		})
	}

	t.Run("wrong kind", func(t *testing.T) {
		if _, err := DecodeMultiTrees(bytes.NewReader(set.Bytes())); err == nil {
			t.Fatal("decoding a cluster set as a multi-tree set succeeded")
		}
		if _, err := DecodeClassifier(bytes.NewReader(single.Bytes())); err == nil {
			t.Fatal("decoding a cluster set as a classifier succeeded")
		}
	})
	t.Run("encode validation", func(t *testing.T) {
		var buf bytes.Buffer
		if err := EncodeClusterSet(&buf, ClusterSet{}); err == nil {
			t.Fatal("encoding an empty set succeeded")
		}
		if err := EncodeClusterSet(&buf, ClusterSet{Trees: []*clustree.Tree{nil}}); err == nil {
			t.Fatal("encoding a set with a nil tree succeeded")
		}
	})
}
