package clustree

import (
	"math"
	"testing"

	"bayestree/internal/dataset"
)

// windowMassTol bounds |view mass − reference| / reference. The view
// is exact up to rounding when every earlier micro-cluster persists into
// the later snapshot and is matched to itself, as with the tight,
// slowly drifting sources below (measured ≤ 7e-15). Sources that spread
// and cross make micro-clusters merge and split between snapshots, and
// the nearest-mean matching is then a heuristic whose error this test
// does not measure.
const windowMassTol = 1e-12

// TestWindowMassUnderDecay is the reference for a snapshot window under
// decay: drifting streams of several sources go into one tree, which is
// snapshotted every 256 objects; the window (t_a, t_b] between two
// retained snapshots must hold the mass the window's objects hold at
// t_b, Σ 2^(−λ·(t_b − t_i)) over t_a < t_i ≤ t_b, within windowMassTol —
// for λ = 0 and under decay.
func TestWindowMassUnderDecay(t *testing.T) {
	const n = 4096
	for _, sources := range []int{3, 6} {
		ds, err := dataset.DriftStream(dataset.DriftSpec{
			Size: n, Classes: sources, Features: 2, ModesPerClass: 1, Spread: 0.005, DriftDistance: 0.02, Seed: int64(sources),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, lambda := range []float64{0, 0.001, 0.004} {
			cfg := DefaultConfig(2)
			cfg.Lambda = lambda
			tree, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			store, err := NewSnapshotStore(2, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				ts := float64(i + 1)
				if err := tree.Insert(ds.X[i], ts, -1); err != nil {
					t.Fatal(err)
				}
				if i%256 == 255 {
					if err := store.Record(ts, tree.MicroClusters(0)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, w := range [][2]float64{{2048, 4096}, {3072, 4096}, {1024, 2048}} {
				ta, tb := w[0], w[1]
				view, err := store.Window(ta, tb, math.Inf(1), lambda)
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
				rel := math.Abs(got-want) / want
				t.Logf("%d sources, λ %v, (%v, %v]: view mass %.4f, reference %.4f (relative error %.2g)", sources, lambda, ta, tb, got, want, rel)
				if rel > windowMassTol {
					t.Errorf("%d sources, λ %v, (%v, %v]: view mass %v, reference %v", sources, lambda, ta, tb, got, want)
				}
			}
		}
	}
}
