package server

import (
	"fmt"
	"io"
	"math"
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

// AdvanceDecay implements Model: prune micro-clusters whose faded
// weight fell below the floor and drop emptied subtrees. The ClusTree
// fades on its logical insert clock, not on epochs, so it has none.
func (c *ctree) AdvanceDecay() core.SweepStats {
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

// ClusterOptions has no field. NewCluster and ClusterFromSnapshot keep
// it for the signatures the API list in bench/sut.go names.
type ClusterOptions struct{}

// ClusterServer is the sharded anytime clustering instantiation of the
// engine. All methods are safe for concurrent use.
type ClusterServer struct {
	engine[*ctree]
	ccfg clustree.Config
	// clock is the global logical time: one tick per ingested object,
	// assigned under the owning shard's write lock so per-shard
	// timestamps are strictly increasing.
	clock atomic.Int64

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
	return newClusterOver(trees, 0, cfg)
}

// newClusterOver wires a ClusterServer over existing trees (empty or
// warm-started) and a restored clock.
func newClusterOver(trees []*clustree.Tree, clock int64, cfg Config) (*ClusterServer, error) {
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
	s := &ClusterServer{ccfg: ccfg}
	s.clock.Store(clock)
	err := s.init(models, cfg, workload[*ctree]{
		name:   replica.WorkloadCluster,
		encode: s.encodeSet,
		stale: func(m *ctree, at int64) error {
			if now := m.t.Now(); float64(at) < now {
				return fmt.Errorf("server: replicated record at time %d precedes the shard's time %v", at, now)
			}
			return nil
		},
		record: func(payload []byte) (int64, func(*shard[*ctree]) error, error) {
			head, x, err := decodeRecord(payload, 2, ccfg.Dim)
			if err == nil {
				// A record can frame what JSON cannot; refuse it before it
				// is logged again or moves the clock.
				err = stats.CheckPoint(x)
			}
			if err != nil {
				return 0, nil, err
			}
			ts, granted := head[0], int(head[1])
			return ts, func(sh *shard[*ctree]) error {
				// The clock mirrors the one that logged the record: raise it
				// to the record's timestamp. Shards replay side by side, so
				// the raise is an atomic max.
				for now := s.clock.Load(); ts > now; now = s.clock.Load() {
					if s.clock.CompareAndSwap(now, ts) {
						break
					}
				}
				_, err := sh.tree.t.InsertCounted(x, float64(ts), granted)
				return err
			}, nil
		},
		stats: func() any { return s.Stats() },
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ClusterFromSnapshot builds a clustering server from a snapshot
// written by WriteSnapshot, warm-starting the shard trees and the
// logical clock.
func ClusterFromSnapshot(r io.Reader, cfg Config, copts ClusterOptions) (*ClusterServer, error) {
	set, err := persist.DecodeClusterSet(r)
	if err != nil {
		return nil, err
	}
	return newClusterOver(set.Trees, set.Clock, cfg)
}

// encodeSet encodes the full server state — every shard's tree and the
// logical clock; callers hold all shard locks (WriteSnapshot's cut, or
// the checkpoint path's).
func (s *ClusterServer) encodeSet(w io.Writer, models []*ctree) error {
	trees := make([]*clustree.Tree, len(models))
	for i, m := range models {
		trees[i] = m.t
	}
	return persist.EncodeClusterSet(w, persist.ClusterSet{Trees: trees, Clock: s.clock.Load()})
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
// The grants are settled after the unlock.
func (s *ClusterServer) ingest(group []int, reqs []wire.ClusterRequest, res []ClusterResult, errs []error) {
	for _, i := range group {
		res[i].Granted = s.grant(res[i].Requested)
	}
	sh := s.shards[res[group[0]].Shard]
	sh.mu.Lock()
	for _, i := range group {
		r := &res[i]
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
		errs[i] = s.countWrite(sh, errs[i], true)
	}
	sh.mu.Unlock()
	for _, i := range group {
		s.settle(res[i].Granted, res[i].NodesRead)
		if errs[i] == nil {
			s.inserts.Add(1)
		}
	}
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
	return st
}
