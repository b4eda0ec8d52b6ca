package core

import (
	"runtime"
	"testing"

	"bayestree/internal/dataset"
)

// TestSplitWorkPinned pins the work node splits do, per seeded build:
// shuffled Pendigits points dealt round-robin over 4 DefaultConfig(16)
// trees, 8,000 of them into trees with no mirror, then 1,000 more with
// every mirror live, as on a served model. Pinned are the number of
// splits, the sort passes one point (leaf) split makes — one per axis
// and the winner's again, d + 1; an inner split makes 2d + 1 — and two
// ceilings: the class slots frozen by the mirror repairs of the 1,000
// inserts that split, and the bytes the 8,000-insert build allocates.
func TestSplitWorkPinned(t *testing.T) {
	const warm, more = 8000, 1000
	for _, tc := range []struct {
		seed                     int64
		splits, splitInserts     int
		maxFrozen, maxBuildBytes uint64
	}{
		{seed: 1, splits: 950, splitInserts: 88, maxFrozen: 5730, maxBuildBytes: 7_200_000},
		{seed: 2, splits: 941, splitInserts: 79, maxFrozen: 5210, maxBuildBytes: 7_200_000},
	} {
		d, err := dataset.Pendigits(1)
		if err != nil {
			t.Fatal(err)
		}
		d.Shuffle(tc.seed)
		dim := d.Dim()
		trees := make([]*MultiTree, 4)
		for i := range trees {
			if trees[i], err = NewMultiTree(DefaultConfig(dim), d.Classes(), MultiOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < warm; i++ {
			if err := trees[i%4].Insert(d.X[i], d.Y[i]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		buildBytes := after.TotalAlloc - before.TotalAlloc

		splits, sorts, leafSplits := 0, 0, 0
		for _, mt := range trees {
			st := mt.Stats()
			// A split adds one node, and a root split the new root too.
			splits += st.Nodes - st.Height
			leafSplits += st.Leaves - 1
			sorts += mt.split.sorts
		}
		innerSorts := (2*dim + 1) * (splits - leafSplits)
		if perPoint := float64(sorts-innerSorts) / float64(leafSplits); perPoint != float64(dim+1) {
			t.Errorf("seed %d: %.2f sort passes per point split, want %d", tc.seed, perPoint, dim+1)
		}

		for _, mt := range trees {
			mt.RefreshSoA()
		}
		frozen, splitInserts := 0, 0
		for i := warm; i < warm+more; i++ {
			mt := trees[i%4]
			s, nodes := mt.soa.Load(), mt.CountNodes()
			f := s.frozen
			if err := mt.Insert(d.X[i], d.Y[i]); err != nil {
				t.Fatal(err)
			}
			if mt.CountNodes() != nodes {
				splitInserts++
				frozen += s.frozen - f
			}
		}
		t.Logf("seed %d: %d splits, %d split inserts with a mirror freezing %d slots, build allocated %d bytes",
			tc.seed, splits, splitInserts, frozen, buildBytes)
		if splits != tc.splits || splitInserts != tc.splitInserts {
			t.Errorf("seed %d: %d splits and %d split inserts, want %d and %d", tc.seed, splits, splitInserts, tc.splits, tc.splitInserts)
		}
		if uint64(frozen) > tc.maxFrozen {
			t.Errorf("seed %d: split repairs froze %d slots, want ≤ %d", tc.seed, frozen, tc.maxFrozen)
		}
		if !raceEnabled && buildBytes > tc.maxBuildBytes {
			t.Errorf("seed %d: the build allocated %d bytes, want ≤ %d", tc.seed, buildBytes, tc.maxBuildBytes)
		}
	}
}

// splitOrder is split over boxes in a splitter of its own: the form the
// split oracle tests call.
func splitOrder(n int, bounds func(i int) (lo, hi []float64), dim, minFill int) (order []int, cut int) {
	return new(splitter).split(n, bounds, dim, minFill, false)
}
