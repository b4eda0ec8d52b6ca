package server

import (
	"math/rand"
	"runtime"
	"testing"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/dataset"
)

// heapGrowth returns how much live heap build leaves behind, and what it
// built (kept reachable until after the measurement).
func heapGrowth[S any](t *testing.T, build func() S) (S, int64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return s, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

func checkWithinTwofold(t *testing.T, what string, estimate, measured int64) {
	t.Helper()
	t.Logf("%s: ApproxBytes %d, live heap grew %d (ratio %.2f)", what, estimate, measured, float64(estimate)/float64(measured))
	if estimate < measured/2 || estimate > 2*measured {
		t.Fatalf("%s: ApproxBytes %d is not within 2x of the %d bytes of heap the model holds", what, estimate, measured)
	}
}

// TestApproxBytesWithinTwofold holds ApproxBytes — what the registry's
// resident-bytes cap pages against — to its stated accuracy against the
// live heap a model really holds: the benchmark's classifier (8,000
// Pendigits points, 16 dimensions, 10 classes, 4 shards, mirrors
// built) and a clustering model.
func TestApproxBytesWithinTwofold(t *testing.T) {
	d, err := dataset.Pendigits(1)
	if err != nil {
		t.Fatal(err)
	}
	d.Shuffle(1)
	for _, mopts := range []core.MultiOptions{{}, {PooledVariance: true}} {
		n := 8000
		if mopts.PooledVariance {
			n = 2000 // a second shape, kept small
		}
		s, grew := heapGrowth(t, func() *Server {
			s, err := NewEmpty(4, core.DefaultConfig(d.Dim()), d.Classes(), mopts, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := s.Insert(d.X[i], d.Y[i]); err != nil {
					t.Fatal(err)
				}
			}
			// The first read builds every shard's mirror.
			if _, err := s.Classify(d.X[0], 8); err != nil {
				t.Fatal(err)
			}
			return s
		})
		checkWithinTwofold(t, "classifier", s.ApproxBytes(), grew)
	}

	// The clustering model.
	rng := rand.New(rand.NewSource(2))
	cs, grew := heapGrowth(t, func() *ClusterServer {
		cs, err := NewCluster(clustree.DefaultConfig(8), 4, Config{}, ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 8)
		for i := 0; i < 6000; i++ {
			for k := range x {
				x[k] = rng.Float64()
			}
			if _, err := cs.Insert(x, 32); err != nil {
				t.Fatal(err)
			}
		}
		return cs
	})
	checkWithinTwofold(t, "cluster", cs.ApproxBytes(), grew)
}
