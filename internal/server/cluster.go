package server

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/persist"
	"bayestree/internal/replica"
	"bayestree/internal/stats"
	"bayestree/internal/wire"
)

// This file instantiates the engine for the paper's second anytime
// workload: the Section-4.2 clustering extension (the ClusTree). The
// anytime operation of a clustering tree is insertion — an object's
// node budget decides how deep its descent gets before it is parked —
// so here the admission controller governs ingest depth rather than
// query refinement: under overload objects park higher up and the tree
// coarsens, exactly the self-adaptation the paper describes, instead of
// the stream backing up.
//
// Sharding: objects are hash-partitioned exactly like classification
// observations, each shard holding an independent clustering tree over
// its partition with timestamps drawn from one global logical clock
// (one tick per ingested object). Because cluster features are
// additive, the union micro-cluster set is simply the concatenation of
// the shard sets — every shard micro-cluster summarises a disjoint
// subset of the stream — so reads fan out and concatenate with no loss,
// mirroring the classifier's exact log-sum-exp score merge.

// ctree adapts one shard's clustering tree to the engine's Model contract.
type ctree struct {
	t *clustree.Tree
	// epoch counts maintenance ticks; the ClusTree's real decay clock
	// is the logical insert timestamp, so this is reporting only.
	epoch int64
	// floor is the maintenance sweep's pruning threshold (0 = keep
	// everything; weights still fade).
	floor float64
}

// Len implements Model: the lifetime insert count (a ClusTree
// aggregates objects into cluster features rather than storing them).
func (c *ctree) Len() int { return c.t.Inserts() }

// Weight implements Model with the tree's decayed total mass.
func (c *ctree) Weight() float64 { return c.t.Weight() }

// CountNodes implements Model.
func (c *ctree) CountNodes() int { return c.t.CountNodes() }

// ApproxBytes implements Model.
func (c *ctree) ApproxBytes() int64 { return c.t.ApproxBytes() }

// Epoch implements Model.
func (c *ctree) Epoch() int64 { return c.epoch }

// AdvanceEpoch implements Model. The ClusTree fades against its logical
// insert clock, so advancing the epoch only moves the maintenance
// counter; the sweep that follows does the forgetting.
func (c *ctree) AdvanceEpoch(n int64) { c.epoch += n }

// DecaySweep implements Model: prune micro-clusters whose faded weight
// fell below the floor and drop emptied subtrees.
func (c *ctree) DecaySweep() core.SweepStats {
	points, subtrees := c.t.Prune(c.floor)
	return core.SweepStats{PointsPruned: points, SubtreesPruned: subtrees}
}

// DecayConfig implements Model. Lambda is per logical time unit — one
// ingested object advances the clock by one.
func (c *ctree) DecayConfig() core.DecayOptions {
	return core.DecayOptions{Lambda: c.t.Config().Lambda, MinWeight: c.floor}
}

// EnableDecay implements Model, overriding the tree's decay rate and
// the sweep floor. Unlike the classifier's decay options, MinWeight is
// not bounded by 1: micro-cluster weights are decayed object counts,
// so floors well above 1 ("forget clusters that faded below ~5
// objects") are the useful range.
func (c *ctree) EnableDecay(opts core.DecayOptions) error {
	if math.IsNaN(opts.Lambda) || math.IsInf(opts.Lambda, 0) || opts.Lambda < 0 {
		return fmt.Errorf("server: cluster decay Lambda must be a finite value ≥ 0, got %v", opts.Lambda)
	}
	if math.IsNaN(opts.MinWeight) || math.IsInf(opts.MinWeight, 0) || opts.MinWeight < 0 {
		return fmt.Errorf("server: cluster pruning floor must be a finite value ≥ 0, got %v", opts.MinWeight)
	}
	if err := c.t.SetLambda(opts.Lambda); err != nil {
		return err
	}
	c.floor = opts.MinWeight
	return nil
}

// The pyramidal store's shape: granularity coarsens by a factor of
// snapshotAlpha per order, and each order keeps snapshotAlpha + 1
// snapshots, the classical choice.
const snapshotAlpha, snapshotCapacity = 2, 3

// ClusterOptions parameterise the parts of a ClusterServer beyond the
// shared engine Config: the pyramidal snapshot store that retains
// micro-cluster history at exponentially coarsening granularity.
type ClusterOptions struct {
	// SnapshotEvery records a union micro-cluster snapshot into the
	// store every N ingested objects (0 means 1024; < 0 disables the
	// store and the /window endpoint).
	SnapshotEvery int
}

// ClusterServer is the sharded anytime clustering instantiation of the
// engine. All methods are safe for concurrent use.
type ClusterServer struct {
	engine[*ctree]
	ccfg  clustree.Config
	copts ClusterOptions
	// clock is the global logical time: one tick per ingested object,
	// assigned under the owning shard's write lock so per-shard
	// timestamps are strictly increasing.
	clock atomic.Int64

	snapMu sync.Mutex
	store  *clustree.SnapshotStore
	// A snapshot's capture takes gate, which every ingest hold shares,
	// alone, and raises recording while it waits, which ends each hold
	// after its current line: the clock stops a line or so per shard past
	// the boundary, so the label stays where the pyramid expects it.
	gate      sync.RWMutex
	recording atomic.Int32

	// spare is the micro-cluster set the last /microclusters read
	// answered from, kept so the next one refills its vectors (one set,
	// not one per P as a sync.Pool would keep).
	spare atomic.Pointer[[]clustree.MicroCluster]
}

// NewCluster builds a clustering server of empty shards over the given
// tree configuration. The engine Config supplies budgets, admission and
// (via Config.Decay) an override of the tree's decay rate and the
// maintenance sweep's pruning floor; Config.Query is ignored.
func NewCluster(ccfg clustree.Config, shards int, cfg Config, copts ClusterOptions) (*ClusterServer, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("server: shard count %d", shards)
	}
	trees := make([]*clustree.Tree, shards)
	for i := range trees {
		t, err := clustree.New(ccfg)
		if err != nil {
			return nil, err
		}
		trees[i] = t
	}
	return newClusterOver(trees, 0, nil, cfg, copts)
}

// newClusterOver wires a ClusterServer over existing trees (empty or
// warm-started), a restored clock and an optional restored store.
func newClusterOver(trees []*clustree.Tree, clock int64, store *clustree.SnapshotStore, cfg Config, copts ClusterOptions) (*ClusterServer, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("server: no shards")
	}
	ccfg := trees[0].Config()
	models := make([]*ctree, len(trees))
	for i, t := range trees {
		if t == nil {
			return nil, fmt.Errorf("server: nil shard %d", i)
		}
		if t.Config().Dim != ccfg.Dim {
			return nil, fmt.Errorf("server: shard %d dim %d != shard 0 dim %d", i, t.Config().Dim, ccfg.Dim)
		}
		models[i] = &ctree{t: t, floor: cfg.Decay.MinWeight}
	}
	if copts.SnapshotEvery == 0 {
		copts.SnapshotEvery = 1024
	}
	s := &ClusterServer{ccfg: ccfg, copts: copts}
	s.clock.Store(clock)
	if copts.SnapshotEvery > 0 {
		if store == nil {
			var err error
			store, err = clustree.NewSnapshotStore(snapshotAlpha, snapshotCapacity)
			if err != nil {
				return nil, err
			}
		}
		s.store = store
	}
	err := s.init(models, cfg, workload[*ctree]{
		name:    replica.WorkloadCluster,
		encode:  s.encodeSet,
		clocked: true,
		stale: func(m *ctree, at int64) error {
			if now := m.t.Now(); float64(at) < now {
				return fmt.Errorf("server: replicated record at time %d precedes the shard's time %v", at, now)
			}
			return nil
		},
		record: func(payload []byte) (int64, func(*shard[*ctree]) error, func(), error) {
			head, x, err := decodeRecord(payload, 2, ccfg.Dim)
			if err == nil {
				// A record can frame what JSON cannot; refuse it before it
				// is logged again or moves the clock.
				err = stats.CheckPoint(x)
			}
			if err != nil {
				return 0, nil, nil, err
			}
			ts, granted := head[0], int(head[1])
			return ts, func(sh *shard[*ctree]) error {
				// The clock mirrors the one that logged the record: advance
				// to its timestamp (per-shard order is apply order, so this is
				// monotone per shard; across shards the max keeps the global
				// clock consistent).
				if ts > s.clock.Load() {
					s.clock.Store(ts)
				}
				_, err := sh.tree.t.InsertCounted(x, float64(ts), granted)
				return err
			}, func() { s.maybeRecord(ts) }, nil
		},
		stats: func() any { return s.Stats() },
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ClusterFromSnapshot builds a clustering server from a snapshot
// written by WriteSnapshot, warm-starting the shard trees, the
// pyramidal store and the logical clock.
func ClusterFromSnapshot(r io.Reader, cfg Config, copts ClusterOptions) (*ClusterServer, error) {
	set, err := persist.DecodeClusterSet(r)
	if err != nil {
		return nil, err
	}
	return newClusterOver(set.Trees, set.Clock, set.Store, cfg, copts)
}

// encodeSet encodes the full server state — every shard's tree, the
// pyramidal store and the logical clock; callers hold all shard locks
// (WriteSnapshot's cut, or the checkpoint path's).
func (s *ClusterServer) encodeSet(w io.Writer, models []*ctree) error {
	trees := make([]*clustree.Tree, len(models))
	for i, m := range models {
		trees[i] = m.t
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return persist.EncodeClusterSet(w, persist.ClusterSet{
		Trees: trees, Store: s.store, Clock: s.clock.Load(),
	})
}

// Dim returns the dimensionality of served observations.
func (s *ClusterServer) Dim() int { return s.ccfg.Dim }

// Clock returns the global logical time (objects ingested so far).
func (s *ClusterServer) Clock() int64 { return s.clock.Load() }

// ClusterResult is the outcome of one served ingest; its definition and
// its wire form live in internal/wire.
type ClusterResult = wire.ClusterResult

// Insert serves one anytime ingest: the requested descent budget is
// capped, passed through admission, and spent descending the owning
// shard's tree — running out parks the object in an inner-node buffer,
// to hitchhike toward leaf level on a later descent. budget 0 means the
// server default, negative means "as much as the cap and admission
// allow". It is the one-line case of a window's ingest.
func (s *ClusterServer) Insert(x []float64, budget int) (ClusterResult, error) {
	shard, err := s.route(x)
	if err != nil {
		return ClusterResult{}, err
	}
	reqs, res, errs := [1]wire.ClusterRequest{{X: x}}, [1]ClusterResult{{Shard: shard, Requested: s.cfg.ClampBudget(budget)}}, [1]error{}
	if s.ingest([]int{0}, reqs[:], res[:], errs[:]); errs[0] != nil {
		return ClusterResult{}, errs[0]
	}
	return res[0], nil
}

// route names the shard of x, or refuses it: a wrong dimension, a
// coordinate CheckPoint refuses, a server that takes no writes.
func (s *ClusterServer) route(x []float64) (int, error) {
	if len(x) != s.ccfg.Dim {
		return 0, fmt.Errorf("server: point dim %d != model dim %d", len(x), s.ccfg.Dim)
	}
	if err := stats.CheckPoint(x); err != nil {
		return 0, err
	}
	if err := s.writeAllowed(); err != nil {
		return 0, err
	}
	return RouteShard(x, len(s.shards)), nil
}

// ingestWindow answers a /cluster NDJSON window's decoded lines shard by
// shard: each line is routed as Insert routes it, into its shard's list
// of line indices, and then one task a shard ingests its list, the
// shards side by side.
func (s *ClusterServer) ingestWindow(x *exchange[wire.ClusterRequest, wire.ClusterResult], n int) {
	if len(x.groups) != len(s.shards) {
		x.groups = make([][]int, len(s.shards))
	}
	for g := range x.groups {
		x.groups[g] = x.groups[g][:0]
	}
	for i := 0; i < n; i++ {
		if x.errs[i] != nil {
			continue
		}
		var shard int
		if shard, x.errs[i] = s.route(x.reqs[i].X); x.errs[i] == nil {
			x.res[i] = ClusterResult{Shard: shard, Requested: s.cfg.ClampBudget(x.reqs[i].Budget)}
			x.groups[shard] = append(x.groups[shard], i)
		}
	}
	core.ForEach(len(x.groups), 0, func(g int) {
		if len(x.groups[g]) > 0 {
			s.ingest(x.groups[g], x.reqs, x.res, x.errs)
		}
	})
}

// ingest inserts the lines at group, all routed to one shard
// (res[i].Shard, res[i].Requested resolved), in line order: all are
// admitted, then under one hold of the shard's write lock each ticks the
// clock, is logged on a durable server — timestamp, granted budget,
// point: the inputs that make the descent deterministic — and descends.
// The grants are settled after the unlock. A hold ends early at a line
// that crosses a recording boundary, whose snapshot is taken before the
// next hold, and after any line while a snapshot waits for the gate.
func (s *ClusterServer) ingest(group []int, reqs []wire.ClusterRequest, res []ClusterResult, errs []error) {
	for _, i := range group {
		res[i].Granted = s.grant(res[i].Requested)
	}
	sh := s.shards[res[group[0]].Shard]
	for len(group) > 0 {
		n, boundary := 0, int64(0)
		s.gate.RLock()
		sh.mu.Lock()
		for ; n == 0 || n < len(group) && boundary == 0 && s.recording.Load() == 0; n++ {
			i, r := group[n], &res[group[n]]
			ts := s.clock.Add(1)
			if s.durableOn() {
				// A failed append does not roll the tick back: per-shard
				// timestamps stay strictly increasing, a skipped tick is harmless.
				if errs[i] = s.logAppend(r.Shard, encodeRecord(reqs[i].X, ts, int64(r.Granted))); errs[i] != nil {
					continue
				}
			}
			parked := sh.tree.t.Parked()
			r.NodesRead, errs[i] = sh.tree.t.InsertCounted(reqs[i].X, float64(ts), r.Granted)
			r.Parked, r.Degraded = sh.tree.t.Parked() > parked, r.Granted < r.Requested
			if errs[i] == nil && s.recordsAt(ts) {
				boundary = ts
			}
		}
		sh.mu.Unlock()
		s.gate.RUnlock()
		for _, i := range group[:n] {
			s.settle(res[i].Granted, res[i].NodesRead)
			if errs[i] == nil {
				s.inserts.Add(1)
			}
		}
		if boundary != 0 {
			s.maybeRecord(boundary)
		}
		group = group[n:]
	}
}

// recordsAt reports whether tick ts is a recording boundary.
func (s *ClusterServer) recordsAt(ts int64) bool {
	return s.store != nil && ts%int64(s.copts.SnapshotEvery) == 0
}

// maybeRecord stores a pyramidal snapshot of the union micro-clusters
// when the logical clock crosses a recording boundary. The capture
// holds all shard locks so it is one consistent cut, and it is
// labelled with the clock value read under those locks — not the
// boundary tick that triggered it — because concurrent ingest may have
// advanced the stream between the tick and the capture, and a /window
// subtraction against a mislabelled snapshot would leak those objects
// out of their window.
func (s *ClusterServer) maybeRecord(ts int64) {
	if !s.recordsAt(ts) {
		return
	}
	var mcs []clustree.MicroCluster
	var at int64
	s.recording.Add(1)
	s.gate.Lock()
	s.recording.Add(-1)
	s.withAllRead(func(models []*ctree) error {
		at = s.clock.Load()
		for _, m := range models {
			mcs = append(mcs, m.t.MicroClusters(0)...) // every one, however light
		}
		return nil
	})
	s.gate.Unlock()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// Record rejects non-positive times only; at ≥ ts ≥ SnapshotEvery.
	s.store.Record(float64(at), mcs)
}

// MicroClusters returns the union micro-cluster set across all shards,
// decayed to each shard's current time and dropping clusters below
// minWeight. CF additivity makes the concatenation exact: each shard
// summarises a disjoint hash partition of the stream.
func (s *ClusterServer) MicroClusters(minWeight float64) []clustree.MicroCluster {
	return s.appendMicroClusters(nil, minWeight)
}

// appendMicroClusters appends the union set to dst shard by shard, each
// under its shard's lock, reusing the vectors of dst's spare elements.
func (s *ClusterServer) appendMicroClusters(dst []clustree.MicroCluster, minWeight float64) []clustree.MicroCluster {
	for _, sh := range s.shards {
		sh.mu.RLock()
		dst = sh.tree.t.AppendMicroClusters(dst, minWeight)
		sh.mu.RUnlock()
	}
	return dst
}

// Window returns the micro-clusters of the data that arrived between
// the retained pyramidal snapshots closest to t1 and t2 (CF
// subtractivity, the earlier snapshot faded at the shards' decay rate),
// or an error when the store is disabled or empty.
func (s *ClusterServer) Window(t1, t2, matchRadius float64) ([]clustree.MicroCluster, error) {
	if s.store == nil {
		return nil, fmt.Errorf("server: snapshot store disabled")
	}
	sh := s.shards[0]
	sh.mu.RLock()
	lambda := sh.tree.DecayConfig().Lambda
	sh.mu.RUnlock()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.store.Window(t1, t2, matchRadius, lambda)
}

// SnapshotsRetained returns how many pyramidal snapshots the store
// currently holds (0 when disabled).
func (s *ClusterServer) SnapshotsRetained() int {
	if s.store == nil {
		return 0
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.store.Len()
}

// ApproxBytes adds the pyramidal snapshot store, which lives beside the
// shard models, to the engine's per-shard estimate.
func (s *ClusterServer) ApproxBytes() int64 {
	total := s.engine.ApproxBytes()
	if s.store != nil {
		s.snapMu.Lock()
		total += s.store.ApproxBytes()
		s.snapMu.Unlock()
	}
	return total
}

// ClusterStats extends the shared engine Stats with the clustering
// workload's own observables.
type ClusterStats struct {
	Stats
	// Clock is the global logical time (objects ingested).
	Clock int64 `json:"clock"`
	// Parked counts insertions that ended in an inner-node buffer — the
	// overload signal of an anytime clustering tree.
	Parked int64 `json:"parked"`
	// Merges counts absorptions into existing micro-clusters.
	Merges int64 `json:"merges"`
	// Splits counts leaf splits.
	Splits int64 `json:"splits"`
	// MicroClusters is the current union micro-cluster count.
	MicroClusters int `json:"micro_clusters"`
	// Depth is the deepest shard tree's level count — under sustained
	// budget pressure objects park high and no splits occur, so this is
	// the self-adaptation observable (it stays small on fast streams).
	Depth int `json:"depth"`
	// SnapshotsRetained is the pyramidal store's current size.
	SnapshotsRetained int `json:"snapshots_retained"`
}

// Stats returns a point-in-time summary: the shared engine counters
// plus parked/merge/split totals and the micro-cluster population.
func (s *ClusterServer) Stats() ClusterStats {
	st := ClusterStats{Stats: s.baseStats(), Clock: s.clock.Load()}
	for _, sh := range s.shards {
		sh.mu.RLock()
		_, parked, merges, splits := sh.tree.t.Counters()
		st.MicroClusters += sh.tree.t.MicroClusterCount(0)
		if d := sh.tree.t.Depth(); d > st.Depth {
			st.Depth = d
		}
		sh.mu.RUnlock()
		st.Parked += int64(parked)
		st.Merges += int64(merges)
		st.Splits += int64(splits)
	}
	st.SnapshotsRetained = s.SnapshotsRetained()
	return st
}
