package clustree

import (
	"fmt"
	"math"
	"sort"
)

// SnapshotStore implements the pyramidal time frame of Aggarwal et al.
// [1], which Section 4.2 proposes for the clustering extension:
// micro-cluster snapshots are kept at timestamps of exponentially growing
// granularity (order i holds times divisible by α^i), with a bounded
// number per order, so that for any past time t a snapshot within a
// bounded relative distance of t is retained while total memory stays
// O(α · log_α(now) · capacity). Combined with CF additivity, two
// snapshots give the clustering of the data that arrived between them.
type SnapshotStore struct {
	alpha    int
	capacity int
	orders   map[int][]Snapshot
}

// Snapshot is the micro-cluster state of a tree at one timestamp.
type Snapshot struct {
	Time          float64
	MicroClusters []MicroCluster
}

// NewSnapshotStore creates a pyramidal store with base alpha ≥ 2 and the
// given per-order capacity (the classical choice is alpha+1).
func NewSnapshotStore(alpha, capacity int) (*SnapshotStore, error) {
	if alpha < 2 {
		return nil, fmt.Errorf("clustree: snapshot alpha must be ≥ 2, got %d", alpha)
	}
	if capacity < 2 {
		return nil, fmt.Errorf("clustree: snapshot capacity must be ≥ 2, got %d", capacity)
	}
	return &SnapshotStore{alpha: alpha, capacity: capacity, orders: make(map[int][]Snapshot)}, nil
}

// order returns the highest i with t divisible by alpha^i (t must be a
// positive integer timestamp).
func (s *SnapshotStore) order(t int64) int {
	i := 0
	a := int64(s.alpha)
	for t%a == 0 {
		t /= a
		i++
	}
	return i
}

// Record stores a snapshot taken at integer timestamp t (snapshots at
// non-integer times are attributed to ⌊t⌋; a zero or negative timestamp
// is rejected). Older snapshots of the same order are evicted beyond the
// capacity.
func (s *SnapshotStore) Record(t float64, mcs []MicroCluster) error {
	it := int64(math.Floor(t))
	if it <= 0 {
		return fmt.Errorf("clustree: snapshot timestamp must be ≥ 1, got %v", t)
	}
	o := s.order(it)
	snaps := s.orders[o]
	// Replace an existing snapshot at the same time.
	for i := range snaps {
		if int64(snaps[i].Time) == it {
			snaps[i] = Snapshot{Time: float64(it), MicroClusters: mcs}
			return nil
		}
	}
	snaps = append(snaps, Snapshot{Time: float64(it), MicroClusters: mcs})
	sort.Slice(snaps, func(a, b int) bool { return snaps[a].Time < snaps[b].Time })
	if len(snaps) > s.capacity {
		// Copy the survivors down and clear the tail: a reslice would keep
		// the evicted snapshots, and their vectors, in the backing array.
		n := copy(snaps, snaps[len(snaps)-s.capacity:])
		clear(snaps[n:])
		snaps = snaps[:n]
	}
	s.orders[o] = snaps
	return nil
}

// Len returns the total number of retained snapshots.
func (s *SnapshotStore) Len() int {
	total := 0
	for _, snaps := range s.orders {
		total += len(snaps)
	}
	return total
}

// Closest returns the retained snapshot whose time is nearest to t, and
// false if the store is empty.
func (s *SnapshotStore) Closest(t float64) (Snapshot, bool) {
	var best Snapshot
	bestD := math.Inf(1)
	found := false
	for _, snaps := range s.orders {
		for _, sn := range snaps {
			if d := math.Abs(sn.Time - t); d < bestD {
				best, bestD, found = sn, d, true
			}
		}
	}
	return best, found
}

// Window returns the difference between the micro-cluster populations of
// the snapshots closest to t1 and t2 (t1 < t2): for each micro-cluster of
// the later snapshot, the CF of the nearest earlier micro-cluster (within
// matchRadius of its mean) is subtracted — the CF subtractivity trick of
// [1] and Section 4.2 that recovers the clustering of the data arriving
// in (t1, t2]. Under decay at rate lambda the later snapshot holds the
// earlier one's objects faded by 2^(−λ·(t_b − t_a)), t_a and t_b the
// snapshots' times, so that is what is subtracted: CF(t_b) −
// 2^(−λ·(t_b − t_a))·CF(t_a). Unmatched later clusters are returned
// whole; results with non-positive weight are dropped.
func (s *SnapshotStore) Window(t1, t2, matchRadius, lambda float64) ([]MicroCluster, error) {
	if t2 <= t1 {
		return nil, fmt.Errorf("clustree: window (%v, %v] is empty", t1, t2)
	}
	a, okA := s.Closest(t1)
	b, okB := s.Closest(t2)
	if !okA || !okB {
		return nil, fmt.Errorf("clustree: no snapshots retained")
	}
	if a.Time >= b.Time {
		return b.MicroClusters, nil
	}
	fade := math.Exp2(-lambda * (b.Time - a.Time))
	used := make([]bool, len(a.MicroClusters))
	var out []MicroCluster
	for _, late := range b.MicroClusters {
		cf := late.CF.Clone()
		// Find the nearest unused early micro-cluster.
		best, bestD := -1, math.Inf(1)
		for i, early := range a.MicroClusters {
			if used[i] {
				continue
			}
			if d := sqDist(early.Mean, late.Mean); d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 && bestD <= matchRadius*matchRadius {
			used[best] = true
			early := a.MicroClusters[best].CF.Clone()
			early.Scale(fade)
			cf.Subtract(early)
		}
		if cf.N > 1e-9 {
			out = append(out, MicroCluster{CF: cf, Weight: cf.N, Mean: cf.Mean(), Radius: cf.Radius()})
		}
	}
	return out, nil
}
