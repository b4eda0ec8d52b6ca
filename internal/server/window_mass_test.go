package server

import (
	"math"
	"testing"

	"bayestree/internal/dataset"
)

// TestClusterWindowMassUnderDecay is clustree's TestWindowMassUnderDecay
// served: tight, slowly drifting sources stream into a ClusterServer that
// snapshots every 256 objects, and the /window view of (t_a, t_b] must
// hold Σ 2^(−λ·(t_b − t_i)) over the window's objects. One shard is
// exact to rounding. Over several shards a snapshot is one cut labelled
// with the global clock, but each shard's micro-clusters are faded to
// that shard's own last insert, a few ticks earlier; the view is then
// within clusterWindowTol of the reference (at most 0.28 % measured, on
// 3 shards at λ = 0.004).
func TestClusterWindowMassUnderDecay(t *testing.T) {
	const n, clusterWindowTol = 4096, 0.005
	ds, err := dataset.DriftStream(dataset.DriftSpec{
		Size: n, Classes: 4, Features: 2, ModesPerClass: 1, Spread: 0.005, DriftDistance: 0.02, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		for _, lambda := range []float64{0, 0.001, 0.004} {
			cs := newTestCluster(t, shards, lambda, Config{})
			for i := 0; i < n; i++ {
				if _, err := cs.Insert(ds.X[i], -1); err != nil {
					t.Fatal(err)
				}
			}
			for _, w := range [][2]float64{{2048, 4096}, {3072, 4096}} {
				ta, tb := w[0], w[1]
				view, err := cs.Window(ta, tb, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				got, want := 0.0, 0.0
				for _, mc := range view {
					got += mc.Weight
				}
				for ti := ta + 1; ti <= tb; ti++ {
					want += math.Exp2(-lambda * (tb - ti))
				}
				tol := 1e-12
				if shards > 1 {
					tol = clusterWindowTol
				}
				rel := math.Abs(got-want) / want
				t.Logf("%d shards, λ %v, (%v, %v]: view mass %.4f, reference %.4f (relative error %.2g)", shards, lambda, ta, tb, got, want, rel)
				if rel > tol {
					t.Errorf("%d shards, λ %v, (%v, %v]: view mass %v, reference %v", shards, lambda, ta, tb, got, want)
				}
			}
			cs.Close()
		}
	}
}
