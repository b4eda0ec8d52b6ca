package clustree

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bayestree/internal/stats"
)

func mcAt(mean []float64, weight float64) MicroCluster {
	cf := stats.NewCF(len(mean))
	for i := 0; i < int(weight); i++ {
		cf.Add(mean)
	}
	return MicroCluster{CF: cf, Weight: cf.N, Mean: cf.Mean(), Radius: cf.Radius()}
}

func TestSnapshotStoreValidation(t *testing.T) {
	if _, err := NewSnapshotStore(1, 3); err == nil {
		t.Errorf("alpha=1 accepted")
	}
	if _, err := NewSnapshotStore(2, 1); err == nil {
		t.Errorf("capacity=1 accepted")
	}
	s, err := NewSnapshotStore(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Record(0, nil); err == nil {
		t.Errorf("t=0 accepted")
	}
	if err := s.Record(-3, nil); err == nil {
		t.Errorf("negative time accepted")
	}
}

// maxRetained bounds the snapshots the store keeps for a horizon T:
// O(alpha·capacity·log_alpha(T)).
func maxRetained(alpha, capacity int, horizon float64) int {
	if horizon < float64(alpha) {
		return capacity
	}
	orders := int(math.Log(horizon)/math.Log(float64(alpha))) + 1
	return orders * capacity
}

// The pyramidal property: memory stays logarithmic in the horizon while
// recent times are retained densely.
func TestSnapshotStorePyramidal(t *testing.T) {
	s, err := NewSnapshotStore(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 4096
	for ts := 1; ts <= horizon; ts++ {
		if err := s.Record(float64(ts), []MicroCluster{mcAt([]float64{float64(ts)}, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() > maxRetained(2, 3, horizon) {
		t.Fatalf("retained %d snapshots, cap %d", s.Len(), maxRetained(2, 3, horizon))
	}
	// The most recent timestamps survive exactly.
	for _, want := range []float64{4096, 4095, 4094} {
		got, ok := s.Closest(want)
		if !ok || got.Time != want {
			t.Errorf("recent snapshot %v lost (got %v)", want, got.Time)
		}
	}
	// The pyramidal guarantee is relative to age: for a query about time
	// q, the retained snapshot's age (horizon − s) differs from the
	// query's age (horizon − q) by at most a constant factor.
	for _, q := range []float64{100, 500, 1000, 3000} {
		got, ok := s.Closest(q)
		if !ok {
			t.Fatalf("no snapshot near %v", q)
		}
		ageQ := horizon - q
		ageS := horizon - got.Time
		if math.Abs(ageS-ageQ) > math.Max(2, 0.8*ageQ) {
			t.Errorf("snapshot age %v too far from query age %v", ageS, ageQ)
		}
	}
}

// TestSnapshotEvictionReleases: an evicted snapshot is not held past
// its order's length, and nothing else in the store keeps it and its
// micro-cluster vectors reachable either: every evicted snapshot's set
// is collected while the store lives on.
func TestSnapshotEvictionReleases(t *testing.T) {
	s, err := NewSnapshotStore(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	var collected atomic.Int64
	for ts := 1; ts <= n; ts++ {
		mcs := []MicroCluster{mcAt([]float64{float64(ts)}, 1)}
		runtime.SetFinalizer(&mcs[0], func(*MicroCluster) { collected.Add(1) })
		if err := s.Record(float64(ts), mcs); err != nil {
			t.Fatal(err)
		}
	}
	for o, snaps := range s.orders {
		for i, sn := range snaps[len(snaps):cap(snaps)] {
			if sn.MicroClusters != nil || sn.Time != 0 {
				t.Errorf("order %d holds the snapshot at %v beyond its length, at %d", o, sn.Time, len(snaps)+i)
			}
		}
	}
	evicted := int64(n - s.Len())
	for try := 0; try < 100 && collected.Load() < evicted; try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != evicted {
		t.Errorf("%d of %d evicted snapshots collected; the store still reaches the rest", got, evicted)
	}
	runtime.KeepAlive(s)
}

func TestSnapshotClosestEmpty(t *testing.T) {
	s, _ := NewSnapshotStore(2, 3)
	if _, ok := s.Closest(10); ok {
		t.Errorf("empty store returned a snapshot")
	}
}

func TestSnapshotRecordReplacesSameTime(t *testing.T) {
	s, _ := NewSnapshotStore(2, 4)
	if err := s.Record(6, []MicroCluster{mcAt([]float64{1}, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(6, []MicroCluster{mcAt([]float64{2}, 5)}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Closest(6)
	if len(got.MicroClusters) != 1 || got.MicroClusters[0].Weight != 5 {
		t.Errorf("replacement failed: %+v", got)
	}
	if s.Len() != 1 {
		t.Errorf("duplicate snapshot retained")
	}
}

// Window subtraction: the micro-clusters of (t1, t2] are the later ones
// minus the matched earlier ones (CF subtractivity).
func TestSnapshotWindow(t *testing.T) {
	s, _ := NewSnapshotStore(2, 8)
	// At t=8: cluster A with weight 10.
	a8 := mcAt([]float64{0.2}, 10)
	if err := s.Record(8, []MicroCluster{a8}); err != nil {
		t.Fatal(err)
	}
	// At t=16: cluster A grew to 25, new cluster B with weight 7.
	a16 := mcAt([]float64{0.2}, 25)
	b16 := mcAt([]float64{0.9}, 7)
	if err := s.Record(16, []MicroCluster{a16, b16}); err != nil {
		t.Fatal(err)
	}
	window, err := s.Window(8, 16, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(window) != 2 {
		t.Fatalf("window has %d clusters, want 2", len(window))
	}
	var wA, wB float64
	for _, m := range window {
		if math.Abs(m.Mean[0]-0.2) < 0.05 {
			wA = m.Weight
		}
		if math.Abs(m.Mean[0]-0.9) < 0.05 {
			wB = m.Weight
		}
	}
	if math.Abs(wA-15) > 1e-9 {
		t.Errorf("windowed weight of A = %v, want 15", wA)
	}
	if math.Abs(wB-7) > 1e-9 {
		t.Errorf("windowed weight of B = %v, want 7", wB)
	}
	if _, err := s.Window(16, 8, 0.1, 0); err == nil {
		t.Errorf("inverted window accepted")
	}
}

// End-to-end: record snapshots while a stream drifts; the window between
// two times reflects only the data of that window.
func TestSnapshotWindowOnLiveTree(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Lambda = 0 // no decay so window arithmetic is exact
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, _ := NewSnapshotStore(2, 6)
	rng := rand.New(rand.NewSource(1))
	ts := 0.0
	record := func() {
		if err := store.Record(ts, tree.MicroClusters(0)); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 1: source at 0.2 for 512 steps.
	for i := 0; i < 512; i++ {
		ts++
		if err := tree.Insert([]float64{clamp01(0.2 + rng.NormFloat64()*0.02)}, ts, -1); err != nil {
			t.Fatal(err)
		}
		record()
	}
	mid := ts
	// Phase 2: source at 0.8 for 512 more.
	for i := 0; i < 512; i++ {
		ts++
		if err := tree.Insert([]float64{clamp01(0.8 + rng.NormFloat64()*0.02)}, ts, -1); err != nil {
			t.Fatal(err)
		}
		record()
	}
	window, err := store.Window(mid, ts, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var w02, w08 float64
	for _, m := range window {
		if m.Mean[0] < 0.5 {
			w02 += m.Weight
		} else {
			w08 += m.Weight
		}
	}
	if w08 < 400 {
		t.Errorf("window misses phase-2 mass: %v", w08)
	}
	if w02 > 120 {
		t.Errorf("window leaks phase-1 mass: %v", w02)
	}
}
