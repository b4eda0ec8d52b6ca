package persist

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"bayestree/internal/core"
)

// benchShards builds the sharded model the codec benchmarks and the
// allocation guard share: shards multi-class trees of perShard points
// each, dim dimensions, classes classes — 4 × 2,000 × 16 × 10 is the
// shape of the repository benchmark's classify rows (a 1.1 MB snapshot).
func benchShards(tb testing.TB, shards, perShard, dim, classes int) []*core.MultiTree {
	tb.Helper()
	labels := make([]int, classes)
	for i := range labels {
		labels[i] = i
	}
	rng := rand.New(rand.NewSource(24))
	set := make([]*core.MultiTree, shards)
	for s := range set {
		mt, err := core.NewMultiTree(core.DefaultConfig(dim), labels, core.MultiOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		x := make([]float64, dim)
		for i := 0; i < perShard; i++ {
			label := rng.Intn(classes)
			for k := range x {
				x[k] = float64(label%4) + 0.5*rng.NormFloat64()
			}
			if err := mt.Insert(x, label); err != nil {
				tb.Fatal(err)
			}
		}
		set[s] = mt
	}
	return set
}

func benchSnapshot(tb testing.TB) ([]*core.MultiTree, []byte) {
	tb.Helper()
	set := benchShards(tb, 4, 2000, 16, 10)
	var buf bytes.Buffer
	if err := EncodeMultiTrees(&buf, set); err != nil {
		tb.Fatal(err)
	}
	return set, buf.Bytes()
}

var benchSink []*core.MultiTree

// reportPerObs reports the time per stored observation: a rate per byte
// would change its meaning with the format, which shrank 3.7× when
// inner summaries stopped being stored.
func reportPerObs(b *testing.B, set []*core.MultiTree) {
	obs := 0
	for _, t := range set {
		obs += t.Len()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*obs), "ns/obs")
}

// BenchmarkDecodeMultiTrees decodes the sharded snapshot of 8,000
// observations from memory: the restart, follower-bootstrap and
// cold-tenant path.
func BenchmarkDecodeMultiTrees(b *testing.B) {
	set, snap := benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := DecodeMultiTrees(bytes.NewReader(snap))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ts
	}
	reportPerObs(b, set)
}

// BenchmarkEncodeMultiTrees encodes the same model: what a checkpoint
// does under every shard lock.
func BenchmarkEncodeMultiTrees(b *testing.B) {
	set, _ := benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EncodeMultiTrees(io.Discard, set); err != nil {
			b.Fatal(err)
		}
	}
	reportPerObs(b, set)
}

// TestSnapshotBytesPinned pins the size of benchSnapshot's encoding
// exactly: 4 shards × 2,000 points, 16 dimensions, 10 classes, 137.34
// bytes an observation. A snapshot stores leaves only, so a point costs
// its coordinates, its label and its share of the framing; storing
// inner summaries too took 526 bytes an observation. An encoder that
// writes one more float64 a point adds 64,000 bytes.
func TestSnapshotBytesPinned(t *testing.T) {
	const want, wantObs = 1_098_749, 8000
	set, snap := benchSnapshot(t)
	obs := 0
	for _, mt := range set {
		obs += mt.Len()
	}
	t.Logf("%d bytes, %d observations, %.2f bytes an observation", len(snap), obs, float64(len(snap))/float64(obs))
	if len(snap) != want || obs != wantObs {
		t.Errorf("the snapshot takes %d bytes for %d observations, want %d for %d", len(snap), obs, want, wantObs)
	}
}
