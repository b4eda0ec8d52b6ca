package server

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bayestree/internal/core"
)

// This file is the workload-agnostic engine layer: everything the
// serving subsystem does that does not depend on what the shards hold.
// The paper's anytime contract — budgeted refinement, CF additivity,
// exponential decay — is one machine instantiated by several workloads
// (the multi-class Bayes tree classifier, the Section-4.2 ClusTree),
// and this layer serves any of them behind the same machinery:
//
//   - per-shard reader/writer locks, so reads fan out concurrently
//     while writes touch one shard;
//   - a global token-bucket admission controller with refunds, so the
//     aggregate refinement work tracks a configured node capacity and
//     overload coarsens answers instead of queueing them;
//   - size-proportional budget splitting across shards;
//   - forgetting on the write count: every Config.DecayEvery writes a
//     shard takes one decay step, under the write lock the crossing
//     write already holds;
//   - draining state for graceful shutdown behind a load balancer.
//
// A workload plugs in by implementing Model for its per-shard type,
// embedding engine[M] and handing init a workload descriptor; Server
// (classification) and ClusterServer (clustering) are the two
// instantiations. Everything in the lifecycle that is not a model
// operation — recovery, checkpoints, replication, promotion, the shared
// HTTP routes — is written once here against that descriptor and
// reaches the outer types by method promotion.

// Model is the per-shard contract a workload implements to be served by
// the engine: size and mass accounting for stats, plus the
// decay-maintenance surface. *core.MultiTree implements it
// directly; the clustering workload wraps *clustree.Tree.
type Model interface {
	// Len is the number of observations the model holds (for models
	// that aggregate rather than store, the lifetime insert count).
	Len() int
	// Weight is the effective (decayed) total mass — exactly
	// float64(Len()) for undecayed models.
	Weight() float64
	// CountNodes is the tree node count, the bounded-memory observable
	// of a decaying model.
	CountNodes() int
	// ApproxBytes estimates the model's resident memory from its shape
	// (dimension, classes, nodes, what it stores per observation).
	ApproxBytes() int64
	// AdvanceDecay takes one decay step: the model fades and prunes
	// mass that fell below the configured floor, reporting what was
	// removed.
	AdvanceDecay() core.SweepStats
	// DecayConfig reports the decay options in effect.
	DecayConfig() core.DecayOptions
	// EnableDecay turns on (or overrides) exponential forgetting.
	EnableDecay(core.DecayOptions) error
}

// soaShard is the optional model surface for the structure-of-arrays
// descent mirror: models that implement it keep the mirror current
// themselves; the engine only builds it ahead of the first reader where
// it holds the write lock anyway (recovery, the decay sweep) and reports
// its maintenance counters into /stats. *core.MultiTree implements it;
// the clustering workload does not, so the engine hooks no-op there.
type soaShard interface {
	RefreshSoA()
	SoACounters() (rebuilds, patches, invalidations int64)
}

// Served is the lifecycle surface of a served workload — the one
// description the Follower, the multi-tenant registry and the serving
// commands all drive a model through. *Server and *ClusterServer are its
// two implementations and get all of it but Handler from the embedded
// engine. It is a type constraint (servers are compared against their
// zero value) and closed to this package.
type Served interface {
	comparable
	// Handler serves the workload's HTTP endpoints.
	Handler() http.Handler
	// ReplicateHandler serves only /replicate, for a second listener.
	ReplicateHandler() http.Handler
	// Recover replays the WAL tail; the server is recovering until then.
	Recover() error
	// Checkpoint folds the WAL into a new snapshot generation.
	Checkpoint() error
	// Promote makes this server the primary of a new fencing epoch.
	Promote() error
	// ApplyReplicated logs and applies one record shipped by a primary.
	ApplyReplicated(shard int, payload []byte) error
	// CloseDurability closes the WAL and releases the directory lock.
	CloseDurability() error
	// SetDraining flips the draining state /readyz reports.
	SetDraining(v bool)
	// Len is the observation count, NumShards the shard count and
	// ApproxBytes an estimate of resident memory.
	Len() int
	NumShards() int
	ApproxBytes() int64
	// Generation is the checkpoint generation, Epoch the fencing epoch.
	Generation() uint64
	Epoch() uint64

	attachDurability(DurabilityOptions, durOpen)
	role() *replState
}

// workload is what the engine must be told about the model it serves,
// set once at init.
type workload[M Model] struct {
	// name labels the workload on the replication wire
	// (replica.WorkloadClassify or replica.WorkloadCluster).
	name string
	// encode writes the whole-model snapshot; the caller holds every
	// shard lock, so it sees one consistent cut.
	encode func(w io.Writer, models []M) error
	// record decodes one WAL record, on replay or shipped by a primary.
	// at is its logical time (0 when the workload has no clock); apply
	// runs under the owning shard's write lock and cannot fail for a
	// record that was validated before it was logged.
	record func(payload []byte) (at int64, apply func(sh *shard[M]) error, err error)
	// stale, when non-nil, refuses a shipped record whose logical time at
	// precedes its shard model's own: the one apply failure decode cannot
	// see. ApplyReplicated runs it under the shard's write lock before
	// the record is logged.
	stale func(m M, at int64) error
	// stats is the /stats value.
	stats func() any
}

// shard is one partition of a served model behind a reader/writer lock;
// writes, its lifetime count of applied writes, is its decay clock.
type shard[M Model] struct {
	mu     sync.RWMutex
	tree   M
	writes uint64
}

// engine is the generic serving core a workload embeds. All methods are
// safe for concurrent use.
type engine[M Model] struct {
	cfg      Config
	wl       workload[M]
	shards   []*shard[M]
	admit    *tokenBucket
	start    time.Time
	draining atomic.Bool

	// dur is the durability layer (write-ahead log + checkpoints), nil
	// when the workload runs memory-only. See durable.go.
	dur *durState

	// repl is the replication role and staleness state: follower vs
	// primary, epoch fencing, applied LSN. See replication.go.
	repl replState

	// decayOn is set when any shard forgets (via Config.Decay or a
	// warm-started snapshot's own decay state).
	decayOn bool

	requests       atomic.Int64
	inserts        atomic.Int64
	nodesRequested atomic.Int64
	nodesGranted   atomic.Int64
	nodesRead      atomic.Int64
	degraded       atomic.Int64
	pointsPruned   atomic.Int64
	subtreesPruned atomic.Int64
}

// init wires the engine over pre-built per-shard models: admission and
// the decay override.
func (e *engine[M]) init(models []M, cfg Config, wl workload[M]) error {
	if len(models) == 0 {
		return fmt.Errorf("server: no shards")
	}
	cfg = cfg.withDefaults()
	e.cfg = cfg
	e.wl = wl
	e.start = time.Now()
	for _, m := range models {
		e.shards = append(e.shards, &shard[M]{tree: m})
	}
	if cfg.NodesPerSecond > 0 {
		e.admit = newTokenBucket(cfg.NodesPerSecond, max(cfg.NodesPerSecond, float64(cfg.MaxBudget)))
	}
	if cfg.Decay.Enabled() {
		for _, sh := range e.shards {
			if err := sh.tree.EnableDecay(cfg.Decay); err != nil {
				return fmt.Errorf("server: %w", err)
			}
		}
	}
	for _, sh := range e.shards {
		if sh.tree.DecayConfig().Enabled() {
			e.decayOn = true
		}
	}
	return nil
}

// refreshShardSoA builds a shard model's structure-of-arrays mirror if
// the workload has one and the model none — otherwise the shard's next
// query would. The caller holds the shard's write lock.
func (e *engine[M]) refreshShardSoA(sh *shard[M]) {
	if m, ok := any(sh.tree).(soaShard); ok {
		m.RefreshSoA()
	}
}

// countWrite follows every write to sh, under its write lock, and
// returns the write's error: a write that applied (err nil) is counted,
// and the one that brings the count to a multiple of DecayEvery takes a
// decay step on the shard. A primary, its replay and its followers apply a shard's
// writes in one order, so all cross every boundary at the same write.
// Replay passes mirror false and builds each mirror once at its end.
func (e *engine[M]) countWrite(sh *shard[M], err error, mirror bool) error {
	if err != nil {
		return err
	}
	sh.writes++
	if e.decayOn && e.cfg.DecayEvery > 0 && sh.writes%uint64(e.cfg.DecayEvery) == 0 {
		e.decayShard(sh, mirror)
	}
	return nil
}

// decayShard takes one decay step on sh (rescale, prune below the
// floor, collapse underfull subtrees) under the caller's write lock;
// with mirror set it rebuilds the descent mirror the step dropped,
// rather than leave it to the shard's first read.
func (e *engine[M]) decayShard(sh *shard[M], mirror bool) core.SweepStats {
	st := sh.tree.AdvanceDecay()
	if mirror {
		e.refreshShardSoA(sh)
	}
	e.pointsPruned.Add(int64(st.PointsPruned))
	e.subtreesPruned.Add(int64(st.SubtreesPruned))
	return st
}

// AdvanceDecay takes one decay step on every shard, one write lock at a
// time, whatever their write counts. No log record names it, so a replica does not
// repeat it: it is for a caller that keeps its own clock (DecayEvery
// 0). A no-op (zero stats) when no shard decays.
func (e *engine[M]) AdvanceDecay() core.SweepStats {
	var agg core.SweepStats
	if !e.decayOn {
		return agg
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		agg.Add(e.decayShard(sh, true))
		sh.mu.Unlock()
	}
	return agg
}

// Close does nothing; the benchmark's API list names it.
func (e *engine[M]) Close() {}

// NumShards returns the number of shards.
func (e *engine[M]) NumShards() int { return len(e.shards) }

// ApproxBytes estimates the served model's resident memory as the sum
// of its shards' own estimates — the observable the multi-tenant
// registry's resident-bytes cap pages against, where being within 2× is
// enough to bound a process. It takes each shard's read lock briefly;
// the result is an estimate, not an accounting.
func (e *engine[M]) ApproxBytes() int64 {
	var total int64
	for _, sh := range e.shards {
		sh.mu.RLock()
		total += sh.tree.ApproxBytes()
		sh.mu.RUnlock()
	}
	return total
}

// Len returns the total number of observations across all shards.
func (e *engine[M]) Len() int {
	total := 0
	for _, sh := range e.shards {
		sh.mu.RLock()
		total += sh.tree.Len()
		sh.mu.RUnlock()
	}
	return total
}

// SetDraining marks the engine as draining (or not): /readyz answers
// 503 so load balancers stop routing here (/healthz stays 200 — the
// process is alive) and newly arriving requests are rejected with 503.
// Requests already being processed are unaffected — the serving
// commands pair this with http.Server.Shutdown, which waits for them.
func (e *engine[M]) SetDraining(v bool) { e.draining.Store(v) }

// Draining reports whether the engine is draining.
func (e *engine[M]) Draining() bool { return e.draining.Load() }

// grant passes a resolved budget through admission and the request
// counters and returns what was granted; the caller must settle the
// grant with the node reads actually spent.
func (e *engine[M]) grant(requested int) (granted int) {
	granted = e.admit.take(requested)
	e.requests.Add(1)
	e.nodesRequested.Add(int64(requested))
	e.nodesGranted.Add(int64(granted))
	if granted < requested {
		e.degraded.Add(1)
	}
	return granted
}

// settle closes a grant against the node reads actually spent: unspent
// grant flows back into the bucket so exhaustion does not eat
// configured capacity, and reads beyond the grant (the clustering
// workload's terminal-node visit) are debited best-effort so the
// long-run node-read rate still tracks the configured capacity.
func (e *engine[M]) settle(granted, read int) {
	if granted > read {
		e.admit.refund(granted - read)
	} else if read > granted {
		e.admit.take(read - granted)
	}
	e.nodesRead.Add(int64(read))
}

// SplitBudget divides a granted budget across shards in proportion to
// their sizes, remainder to the earliest non-empty shards — the exact
// split the union model would spend on each partition, and the one a
// scatter-gather proxy applies across its partitions.
func SplitBudget(granted int, sizes []int, total int) []int {
	budgets := make([]int, len(sizes))
	if total == 0 {
		return budgets
	}
	spent := 0
	for i, n := range sizes {
		budgets[i] = granted * n / total
		spent += budgets[i]
	}
	for i := 0; spent < granted && i < len(budgets); i++ {
		if sizes[i] > 0 {
			budgets[i]++
			spent++
		}
	}
	return budgets
}

// withAllRead runs fn over every shard's model while holding all shard
// read locks, so fn sees one consistent cut across the whole sharded
// model — the snapshot path.
func (e *engine[M]) withAllRead(fn func(models []M) error) error {
	models := make([]M, len(e.shards))
	for i, sh := range e.shards {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		models[i] = sh.tree
	}
	return fn(models)
}

// WriteSnapshot encodes the whole model — every shard, plus whatever
// else the workload keeps beside them — into one versioned snapshot. It
// holds all shard locks for the duration, so the snapshot is a
// consistent cut: writes wait, reads do not.
func (e *engine[M]) WriteSnapshot(w io.Writer) error {
	return e.withAllRead(func(models []M) error { return e.wl.encode(w, models) })
}

// baseStats fills the workload-agnostic part of a Stats summary.
func (e *engine[M]) baseStats() Stats {
	st := Stats{
		UptimeSeconds:  time.Since(e.start).Seconds(),
		Shards:         len(e.shards),
		Requests:       e.requests.Load(),
		Inserts:        e.inserts.Load(),
		NodesRequested: e.nodesRequested.Load(),
		NodesGranted:   e.nodesGranted.Load(),
		NodesRead:      e.nodesRead.Load(),
		Degraded:       e.degraded.Load(),
		Draining:       e.draining.Load(),
		DecayEnabled:   e.decayOn,
		PointsPruned:   e.pointsPruned.Load(),
		SubtreesPruned: e.subtreesPruned.Load(),
	}
	for _, sh := range e.shards {
		sh.mu.RLock()
		n := sh.tree.Len()
		st.Nodes += sh.tree.CountNodes()
		st.Weight += sh.tree.Weight()
		if m, ok := any(sh.tree).(interface{ Epoch() int64 }); ok {
			st.DecayEpoch = max(st.DecayEpoch, m.Epoch())
		}
		if m, ok := any(sh.tree).(soaShard); ok {
			r, p, inv := m.SoACounters()
			st.SoARebuilds += r
			st.SoAPatches += p
			st.SoAInvalidations += inv
		}
		sh.mu.RUnlock()
		st.ShardSizes = append(st.ShardSizes, n)
		st.Observations += n
	}
	e.durStats(&st)
	e.replStats(&st)
	return st
}
