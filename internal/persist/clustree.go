package persist

import (
	"fmt"
	"io"
	"math"

	"bayestree/internal/clustree"
)

// This file extends the snapshot format to the clustering workload: a
// cluster set holds per shard a Section-4.2 ClusTree (tree topology,
// entry cluster features, parked buffer CFs, decay timestamps, lifetime
// counters), then the pyramidal snapshot store of micro-cluster history.
// Unlike the classifier kinds' inner summaries, a ClusTree's inner CFs
// are stored: with their own timestamps and parked buffers they are not
// a function of their children. Float64 values are bit-exact, so a
// reloaded tree reports MicroClusters and Weight digit-identically to
// the tree that was saved, including outstanding lazy decay (timestamps
// round-trip, so fading resumes at the exact point it stopped).

// kindClusterSet is the clustering snapshot kind, continuing the kind
// namespace of persist.go (kind 4, a single clustering tree, is retired).
const kindClusterSet byte = 5 // sharded clustering server state

// ClusterSet is the whole state of a sharded clustering server: the
// per-shard trees, the pyramidal micro-cluster history (nil when the
// store is disabled) and the global logical clock.
type ClusterSet struct {
	// Trees holds one clustering tree per shard.
	Trees []*clustree.Tree
	// Store is the pyramidal snapshot store, nil when disabled.
	Store *clustree.SnapshotStore
	// Clock is the global logical time (objects ingested so far).
	Clock int64
}

// EncodeClusterSet writes a snapshot of a sharded clustering server's
// whole model state — trees, pyramidal store and clock — in one file.
func EncodeClusterSet(w io.Writer, set ClusterSet) error {
	if len(set.Trees) == 0 {
		return fmt.Errorf("persist: empty clustree set")
	}
	// Dump and All copy what they export: taken once, outside the body
	// encodeSized runs twice.
	dumps := make([]*clustree.DumpNode, len(set.Trees))
	for i, t := range set.Trees {
		if t == nil {
			return fmt.Errorf("persist: nil clustree in set")
		}
		dumps[i] = t.Dump()
	}
	var snaps []clustree.Snapshot
	if set.Store != nil {
		snaps = set.Store.All()
	}
	return encodeSized(w, kindClusterSet, func(e *encoder) {
		e.u64(uint64(len(set.Trees)))
		for i, t := range set.Trees {
			e.clusTree(t, dumps[i])
		}
		e.boolv(set.Store != nil)
		if set.Store != nil {
			e.clusStore(set.Store, snaps)
		}
		e.i64(set.Clock)
	})
}

// DecodeClusterSet reads a sharded clustering snapshot written by
// EncodeClusterSet.
func DecodeClusterSet(r io.Reader) (ClusterSet, error) {
	var set ClusterSet
	d, err := newDecoder(r, kindClusterSet)
	if err != nil {
		return set, err
	}
	n := d.count(8)
	if d.err == nil && n == 0 {
		d.fail("empty clustree set")
	}
	for i := 0; i < n; i++ {
		t := d.clusTree()
		if d.err != nil {
			return ClusterSet{}, d.err
		}
		set.Trees = append(set.Trees, t)
	}
	if d.boolv() {
		set.Store = d.clusStore(set.Trees[0].Config().Dim)
	}
	set.Clock = d.i64()
	if err := d.done(); err != nil {
		return ClusterSet{}, err
	}
	return set, nil
}

// ---------------------------------------------------------------------
// encoder

func (e *encoder) clusConfig(c clustree.Config) {
	e.i64(int64(c.Dim))
	e.i64(int64(c.MaxFanout))
	e.i64(2) // the retired MinFanout, which the tree never read
	e.i64(clustree.MaxLeafEntries)
	e.f64(c.Lambda)
	e.f64(clustree.MergeThreshold)
	e.f64(clustree.AbsorbDistance)
}

func (e *encoder) clusTree(t *clustree.Tree, dump *clustree.DumpNode) {
	e.clusConfig(t.Config())
	e.f64(t.Now())
	inserts, parked, merges, splits := t.Counters()
	e.i64(int64(inserts))
	e.i64(int64(parked))
	e.i64(int64(merges))
	e.i64(int64(splits))
	e.clusNode(dump)
}

func (e *encoder) clusNode(n *clustree.DumpNode) {
	if n.Leaf {
		e.u8(0)
	} else {
		e.u8(1)
	}
	e.u64(uint64(len(n.Entries)))
	for i := range n.Entries {
		ent := &n.Entries[i]
		e.cf(&ent.CF)
		e.cf(&ent.Buffer)
		e.f64(ent.TS)
		if !n.Leaf {
			e.clusNode(ent.Child)
		}
	}
}

func (e *encoder) clusStore(s *clustree.SnapshotStore, snaps []clustree.Snapshot) {
	e.i64(int64(s.Alpha()))
	e.i64(int64(s.Capacity()))
	e.u64(uint64(len(snaps)))
	for _, sn := range snaps {
		e.f64(sn.Time)
		e.u64(uint64(len(sn.MicroClusters)))
		for i := range sn.MicroClusters {
			e.cf(&sn.MicroClusters[i].CF)
		}
	}
}

// ---------------------------------------------------------------------
// decoder

func (d *decoder) clusConfig() clustree.Config {
	var c clustree.Config
	c.Dim = d.dim()
	c.MaxFanout = int(d.i64())
	d.fixed("MinFanout", d.i64(), int64(2))
	d.fixed("MaxLeafEntries", d.i64(), int64(clustree.MaxLeafEntries))
	c.Lambda = d.f64()
	d.fixed("MergeThreshold", d.f64(), float64(clustree.MergeThreshold))
	d.fixed("AbsorbDistance", d.f64(), float64(clustree.AbsorbDistance))
	return c
}

func (d *decoder) clusTree() *clustree.Tree {
	cfg := d.clusConfig()
	now := d.f64()
	inserts := int(d.i64())
	parked := int(d.i64())
	merges := int(d.i64())
	splits := int(d.i64())
	if d.err != nil {
		return nil
	}
	root := d.clusNode(cfg.Dim)
	if d.err != nil {
		return nil
	}
	t, err := clustree.Rebuild(cfg, root, now, inserts, parked, merges, splits)
	if err != nil {
		d.fail("rebuild clustree: %v", err)
		return nil
	}
	return t
}

func (d *decoder) clusNode(dim int) *clustree.DumpNode {
	tag := d.u8()
	if d.err != nil {
		return nil
	}
	if tag > 1 {
		d.fail("unknown node tag %d", tag)
		return nil
	}
	n := &clustree.DumpNode{Leaf: tag == 0}
	count := d.count(8 * (2 + 4*dim))
	for i := 0; i < count; i++ {
		ent := clustree.DumpEntry{CF: d.cf(dim), Buffer: d.cf(dim), TS: d.f64()}
		if !n.Leaf {
			ent.Child = d.clusNode(dim)
		}
		if d.err != nil {
			return nil
		}
		n.Entries = append(n.Entries, ent)
	}
	return n
}

// clusStore rebuilds the pyramidal store by re-Recording the retained
// snapshots in time order: no order bucket can exceed its capacity
// (they were within capacity when saved), so no eviction fires and the
// rebuilt store is identical. Record floors a non-integer time, replaces
// a time it holds and evicts beyond an order's capacity, so a time that
// is not an integer above the one before, or a store that keeps fewer
// snapshots than it lists, would decode to a store that encodes
// differently: both are refused.
func (d *decoder) clusStore(dim int) *clustree.SnapshotStore {
	alpha := int(d.i64())
	capacity := int(d.i64())
	count := d.count(8)
	if d.err != nil {
		return nil
	}
	store, err := clustree.NewSnapshotStore(alpha, capacity)
	if err != nil {
		d.fail("rebuild snapshot store: %v", err)
		return nil
	}
	prev := 0.0
	for i := 0; i < count; i++ {
		time := d.f64()
		if d.err == nil && (time != math.Trunc(time) || time <= prev || time >= 1<<63) {
			d.fail("snapshot time %v after %v", time, prev)
		}
		prev = time
		mcCount := d.count(8 * (1 + 2*dim))
		mcs := make([]clustree.MicroCluster, 0, mcCount)
		for j := 0; j < mcCount; j++ {
			cf := d.cf(dim)
			if d.err != nil {
				return nil
			}
			mcs = append(mcs, clustree.MicroCluster{
				CF: cf, Weight: cf.N, Mean: cf.Mean(), Radius: cf.Radius(),
			})
		}
		if d.err != nil {
			return nil
		}
		if err := store.Record(time, mcs); err != nil {
			d.fail("rebuild snapshot store: %v", err)
			return nil
		}
	}
	if store.Len() != count {
		d.fail("snapshot store lists %d snapshots and keeps %d", count, store.Len())
		return nil
	}
	return store
}
