package server

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"bayestree/internal/clustree"
)

// clusterPoint draws an observation from one of two well-separated
// unit-cube sources.
func clusterPoint(rng *rand.Rand, src int) []float64 {
	centers := [][2]float64{{0.2, 0.25}, {0.8, 0.7}}
	return []float64{
		centers[src][0] + 0.04*rng.NormFloat64(),
		centers[src][1] + 0.04*rng.NormFloat64(),
	}
}

// newTestCluster builds a clustering server with no decay and the
// given shard count.
func newTestCluster(t *testing.T, shards int, lambda float64, cfg Config) *ClusterServer {
	t.Helper()
	ccfg := clustree.DefaultConfig(2)
	ccfg.Lambda = lambda
	cs, err := NewCluster(ccfg, shards, cfg, ClusterOptions{})
	if err != nil {
		t.Fatalf("new cluster server: %v", err)
	}
	return cs
}

// TestClusterIngestAndMacro: bulk ingest from two sources must come
// back out of the offline step as two macro clusters near the sources.
func TestClusterIngestAndMacro(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cs := newTestCluster(t, shards, 0.001, Config{})
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 2000; i++ {
			if _, err := cs.Insert(clusterPoint(rng, i%2), -1); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		mcs := cs.MicroClusters(0)
		macros, _ := clustree.MacroClusters(mcs, clustree.MacroOptions{Eps: 0.15, MinWeight: 5})
		if len(mcs) == 0 {
			t.Fatalf("%d shards: no micro-clusters after 2000 inserts", shards)
		}
		if len(macros) != 2 {
			t.Fatalf("%d shards: %d macro clusters, want 2", shards, len(macros))
		}
		found := 0
		for _, want := range [][2]float64{{0.2, 0.25}, {0.8, 0.7}} {
			for _, m := range macros {
				if math.Hypot(m.Mean[0]-want[0], m.Mean[1]-want[1]) < 0.08 {
					found++
					break
				}
			}
		}
		if found != 2 {
			t.Fatalf("%d shards: macro means %v do not match the two sources", shards, macros)
		}
		st := cs.Stats()
		if st.Observations != 2000 || st.Clock != 2000 {
			t.Fatalf("%d shards: observations %d clock %d, want 2000/2000", shards, st.Observations, st.Clock)
		}
		if shards > 1 {
			nonEmpty := 0
			for _, n := range st.ShardSizes {
				if n > 0 {
					nonEmpty++
				}
			}
			if nonEmpty < 2 {
				t.Fatalf("hash routing left only %d non-empty shards", nonEmpty)
			}
		}
	}
}

// TestClusterBudgetStarvation: zero-budget ingest must park objects in
// inner buffers instead of failing, and total weight must be conserved
// (λ = 0, so nothing fades).
func TestClusterBudgetStarvation(t *testing.T) {
	cs := newTestCluster(t, 2, 0, Config{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1500; i++ {
		budget := -1
		if i%3 != 0 {
			budget = 1 // starved: parks once the trees grow past one level
		}
		res, err := cs.Insert(clusterPoint(rng, i%2), budget)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if res.Granted != res.Requested {
			t.Fatalf("insert %d: granted %d != requested %d with admission off", i, res.Granted, res.Requested)
		}
	}
	st := cs.Stats()
	if st.Parked == 0 {
		t.Fatal("no parked insertions under budget starvation")
	}
	if math.Abs(st.Weight-1500) > 1e-6 {
		t.Fatalf("weight %v after 1500 undecayed inserts, want 1500", st.Weight)
	}
	for _, sh := range cs.shards {
		if err := sh.tree.t.Validate(); err != nil {
			t.Fatalf("invariant violation: %v", err)
		}
	}
}

// TestClusterAdmissionDegrades: a tiny node capacity must shallow the
// descents (parking objects) rather than erroring or blocking.
func TestClusterAdmissionDegrades(t *testing.T) {
	cs := newTestCluster(t, 2, 0, Config{NodesPerSecond: 100, DefaultBudget: 8})
	cs.admit = newTokenBucket(100, 50)
	rng := rand.New(rand.NewSource(11))
	granted := 0
	for i := 0; i < 800; i++ {
		res, err := cs.Insert(clusterPoint(rng, i%2), 8)
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		granted += res.Granted
	}
	if granted >= 800*8 {
		t.Fatalf("granted %d node visits, admission had no effect", granted)
	}
	st := cs.Stats()
	if st.Observations != 800 {
		t.Fatalf("observations %d, want 800 — overload must not drop objects", st.Observations)
	}
}

// TestClusterSnapshotRoundTrip: a decayed, budget-starved clustering
// server saved and reloaded must report micro-clusters digit-identical
// to the original — CF floats bit for bit — and keep the clock.
func TestClusterSnapshotRoundTrip(t *testing.T) {
	cs := newTestCluster(t, 3, 0.002, Config{})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1800; i++ {
		budget := -1
		if i%4 == 0 {
			budget = 1
		}
		if _, err := cs.Insert(clusterPoint(rng, i%2), budget); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	var buf bytes.Buffer
	if err := cs.WriteSnapshot(&buf); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	re, err := ClusterFromSnapshot(bytes.NewReader(buf.Bytes()), Config{}, ClusterOptions{})
	if err != nil {
		t.Fatalf("from snapshot: %v", err)
	}
	if re.NumShards() != 3 || re.Clock() != cs.Clock() {
		t.Fatalf("reloaded %d shards clock %d, want 3 / %d", re.NumShards(), re.Clock(), cs.Clock())
	}
	a, b := cs.MicroClusters(0), re.MicroClusters(0)
	if len(a) != len(b) {
		t.Fatalf("micro-cluster count %d != %d", len(b), len(a))
	}
	for i := range a {
		if a[i].CF.N != b[i].CF.N {
			t.Fatalf("micro %d: N %v != %v", i, b[i].CF.N, a[i].CF.N)
		}
		for k := range a[i].CF.LS {
			if a[i].CF.LS[k] != b[i].CF.LS[k] || a[i].CF.SS[k] != b[i].CF.SS[k] {
				t.Fatalf("micro %d dim %d: CF diverged", i, k)
			}
		}
	}
	if w1, w2 := cs.Stats().Weight, re.Stats().Weight; w1 != w2 {
		t.Fatalf("weight %v != %v after round trip", w2, w1)
	}
	// The reloaded server must be live: further ingest works.
	if _, err := re.Insert([]float64{0.5, 0.5}, -1); err != nil {
		t.Fatalf("insert after reload: %v", err)
	}
}

// TestClusterConcurrent hammers ingest against micro-cluster reads and
// stats; under -race it shows the reads, which share each shard's read
// lock, write nothing to the tree.
func TestClusterConcurrent(t *testing.T) {
	cs := newTestCluster(t, 4, 0.001, Config{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cs.MicroClusters(0.5)
				cs.Stats()
			}
		}()
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1200; i++ {
		if _, err := cs.Insert(clusterPoint(rng, i%2), 4); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if cs.Len() != 1200 {
		t.Fatalf("len %d after concurrent ingest, want 1200", cs.Len())
	}
}

// TestClusterValidation covers constructor and routing edge cases.
func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(clustree.DefaultConfig(2), 0, Config{}, ClusterOptions{}); err == nil {
		t.Fatal("NewCluster with 0 shards succeeded")
	}
	cs := newTestCluster(t, 2, 0, Config{})
	if _, err := cs.Insert([]float64{1}, -1); err == nil {
		t.Fatal("insert with wrong dim succeeded")
	}
	if d := cs.Dim(); d != 2 {
		t.Fatalf("dim %d, want 2", d)
	}
}
