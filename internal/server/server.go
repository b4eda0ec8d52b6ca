// Package server is the anytime serving subsystem: a workload-agnostic
// engine (per-shard reader/writer locks, a global token-bucket
// admission controller that makes aggregate refinement work track a
// configured node-read capacity, size-proportional budget splitting,
// decay on the write count and graceful draining — see engine.go)
// instantiated for the paper's two anytime workloads. Server serves
// multi-class Bayes tree classification over HTTP (/classify with
// single and NDJSON streaming forms, /insert, /stats, /healthz);
// ClusterServer serves the Section-4.2 anytime clustering extension
// (/cluster, /microclusters, /macroclusters, /stats, /healthz). Both support snapshot save/load for warm starts.
//
// With decay configured (Config.Decay) the engine also forgets: every
// Config.DecayEvery writes to a shard take one decay step on it —
// fading its mass by 2^(−λ), pruning what falls below the weight floor —
// so a long-running server stays bounded and tracks concept drift. The clock is stream position, as in the paper.
//
// Sharding model: observations are hash-partitioned across shards, each
// shard holding an independent model over its partition. Because
// cluster features are additive, the union model is exactly the
// combination of the shard models — for classification a classification
// fans out over all shards, splitting its granted node budget in
// proportion to shard sizes, and combines the per-shard class scores
// with a size-weighted log-sum-exp; for clustering the union
// micro-cluster set is the concatenation of the shard sets. Reads take
// the shard RLock, so any number of reads proceed concurrently; an
// insert write-locks only the one shard that owns the point, leaving
// the other shards' read capacity untouched.
package server

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"

	"bayestree/internal/core"
	"bayestree/internal/persist"
	"bayestree/internal/replica"
	"bayestree/internal/stats"
	"bayestree/internal/wire"
)

// DefaultMaxBudget caps per-request refinement budgets when Config
// leaves MaxBudget zero, bounding the work one request can demand.
const DefaultMaxBudget = 1024

// Config parameterises a served workload — classification and
// clustering share it (the clustering engine ignores Query).
type Config struct {
	// DefaultBudget is the node-read budget used when a request does not
	// specify one (zero means 32).
	DefaultBudget int
	// MaxBudget caps any single request's budget, including "full
	// refinement" requests (≤ 0 means DefaultMaxBudget).
	MaxBudget int
	// NodesPerSecond is the global admission capacity in node reads per
	// second across all requests; 0 disables admission control. The
	// bucket holds max(NodesPerSecond, MaxBudget) node reads: a second's
	// refill, and never less than one full request.
	NodesPerSecond float64
	// Query selects the descent strategy and priority used for every
	// classification query (zero value = the paper's best: global
	// probabilistic). The clustering workload ignores it.
	Query core.ClassifierOptions
	// Decay configures exponential forgetting on every shard: Lambda is
	// the fade exponent of one decay step (a classification shard's
	// weights fade by 2^(−λ) a step; a ClusTree's by 2^(−λ) an ingested
	// object) and MinWeight the floor below which a step prunes. The zero value
	// keeps today's append-only behaviour. When set it overrides
	// whatever decay options warm-started trees carried.
	Decay core.DecayOptions
	// DecayEvery is a decay epoch's length in writes to a shard: the
	// write that brings a shard's count to a multiple of it takes one
	// decay step on the shard. Zero leaves the steps to AdvanceDecay.
	DecayEvery int
}

// withDefaults returns the configuration with zero values resolved.
func (c Config) withDefaults() Config {
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 32
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = DefaultMaxBudget
	}
	return c
}

// ClampBudget resolves a request-level budget against the default and
// the cap: 0 means DefaultBudget, negative means "as much as allowed".
// This is the HTTP-facing convention; the stream.Engine path and a
// request that sets literal_budget use CapBudget instead, where 0 is a
// literal zero. Both are the one budget rule every tier applies — the
// engine, and the proxy over its own default and cap — and expect a
// Config whose zero values are resolved.
func (c Config) ClampBudget(budget int) int {
	if budget == 0 {
		budget = c.DefaultBudget
	}
	return c.CapBudget(budget)
}

// CapBudget applies only the hard cap: negative and over-cap budgets
// become MaxBudget, everything else — including 0 — is taken literally.
func (c Config) CapBudget(budget int) int {
	if budget < 0 || budget > c.MaxBudget {
		budget = c.MaxBudget
	}
	return budget
}

// Server is the sharded anytime classification instantiation of the
// engine. All methods are safe for concurrent use.
type Server struct {
	engine[*core.MultiTree]
	labels []int
	dim    int
}

// New builds a server over pre-built per-shard trees. All shards must
// share one dimensionality and one class-label ordering (score
// combination relies on positional alignment) of at least two classes;
// shards may be empty and fill up through Insert.
func New(trees []*core.MultiTree, cfg Config) (*Server, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("server: no shards")
	}
	for i, t := range trees {
		if t == nil {
			return nil, fmt.Errorf("server: nil shard %d", i)
		}
	}
	labels := trees[0].Labels()
	if len(labels) < 2 {
		// A one-class tree is a class tree of a forest: it decides nothing.
		return nil, fmt.Errorf("server: a model needs ≥ 2 classes, got %d", len(labels))
	}
	dim := trees[0].Config().Dim
	for i, t := range trees {
		if t.Config().Dim != dim {
			return nil, fmt.Errorf("server: shard %d dim %d != shard 0 dim %d", i, t.Config().Dim, dim)
		}
		tl := t.Labels()
		if len(tl) != len(labels) {
			return nil, fmt.Errorf("server: shard %d has %d classes, shard 0 has %d", i, len(tl), len(labels))
		}
		for c := range tl {
			if tl[c] != labels[c] {
				return nil, fmt.Errorf("server: shard %d label order %v != shard 0 %v", i, tl, labels)
			}
		}
	}
	s := &Server{labels: labels, dim: dim}
	err := s.init(trees, cfg, workload[*core.MultiTree]{
		name:   replica.WorkloadClassify,
		encode: persist.EncodeMultiTrees,
		record: func(payload []byte) (int64, func(*shard[*core.MultiTree]) error, error) {
			head, x, err := decodeRecord(payload, 1, dim)
			if err == nil {
				// A record can frame what JSON cannot; refuse it before it
				// is logged again, as Insert does.
				err = s.checkWrite(x, int(head[0]))
			}
			if err != nil {
				return 0, nil, err
			}
			return 0, func(sh *shard[*core.MultiTree]) error { return sh.tree.Insert(x, int(head[0])) }, nil
		},
		stats: func() any { return s.Stats() },
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewEmpty builds a server of empty shards that learns purely online:
// every shard starts with an empty multi-class tree over the given
// labels and fills up through Insert.
func NewEmpty(shards int, treeCfg core.Config, labels []int, mopts core.MultiOptions, cfg Config) (*Server, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("server: shard count %d", shards)
	}
	trees := make([]*core.MultiTree, shards)
	for i := range trees {
		t, err := core.NewMultiTree(treeCfg, labels, mopts)
		if err != nil {
			return nil, err
		}
		trees[i] = t
	}
	return New(trees, cfg)
}

// FromSnapshot builds a server from a sharded-set snapshot written by
// WriteSnapshot (or persist.EncodeMultiTrees), warm-starting with the
// saved trees' inner entries derived.
func FromSnapshot(r io.Reader, cfg Config) (*Server, error) {
	trees, err := persist.DecodeMultiTrees(r)
	if err != nil {
		return nil, err
	}
	return New(trees, cfg)
}

// Labels returns the class labels the server predicts.
func (s *Server) Labels() []int { return append([]int(nil), s.labels...) }

// Dim returns the dimensionality of served observations.
func (s *Server) Dim() int { return s.dim }

// Result is the outcome of one served classification; its definition
// and its wire form live in internal/wire.
type Result = wire.Result

// Classify serves one anytime classification: the requested budget is
// capped, passed through admission, split across shards in proportion
// to their sizes, spent on per-shard anytime queries under shard read
// locks, and the per-shard class scores are combined with a
// size-weighted log-sum-exp — exactly the mixture the union tree would
// have produced. budget 0 means the server default, negative means "as
// much as the cap and admission allow".
func (s *Server) Classify(x []float64, budget int) (Result, error) {
	return s.classifyResolved(x, s.cfg.ClampBudget(budget))
}

// classifyResolved is Classify after budget resolution, and the one
// place a classification is assembled above the trees — the solo call,
// every NDJSON line, every item of an in-process batch and every
// group's share of a proxied request run it: requested is the final
// capped request, admission decides what of it is granted, the grant
// is split over the shards by the sizes each tree published, each
// non-empty shard answers one solo anytime query under its read lock,
// and stats.MergeLogScores mixes the shard scores in index order.
// Each shard's lock is taken once: first every shard whose read lock
// is free, then the ones a writer held, each pass in index order, so a
// classify reads other shards while an insert finishes. Whatever
// granted work the models could not absorb (exhaustion, errors) is
// refunded to the bucket on return, so unspent grants do not eat the
// configured node-read capacity.
func (s *Server) classifyResolved(x []float64, requested int) (Result, error) {
	if len(x) != s.dim {
		return Result{}, fmt.Errorf("server: point dim %d != model dim %d", len(x), s.dim)
	}
	granted := s.grant(requested)
	read := 0
	defer func() { s.settle(granted, read) }()

	sizes, weights := make([]int, len(s.shards)), make([]float64, len(s.shards))
	total, totalW := 0, 0.0
	for i, sh := range s.shards {
		sizes[i], weights[i] = sh.tree.Published()
		total += sizes[i]
		totalW += weights[i]
	}
	if total == 0 || totalW <= 0 {
		return Result{}, fmt.Errorf("server: no observations yet")
	}
	budgets := SplitBudget(granted, sizes, total)

	parts := make([][]float64, len(s.shards))
	for _, wait := range [2]bool{false, true} {
		for i, sh := range s.shards {
			if sizes[i] == 0 || parts[i] != nil {
				continue
			}
			if wait {
				sh.mu.RLock()
			} else if !sh.mu.TryRLock() {
				continue
			}
			q, err := sh.tree.NewQuery(x, s.cfg.Query)
			if err == nil {
				for b := 0; b < budgets[i] && q.Step(); b++ {
				}
				read += q.NodesRead()
				parts[i] = q.Scores()
				q.Close()
			}
			sh.mu.RUnlock()
			if err != nil {
				return Result{}, fmt.Errorf("server: shard %d: %w", i, err)
			}
		}
	}
	combined := make([]float64, len(s.labels))
	best := stats.MergeLogScores(combined, parts, weights, totalW)
	return Result{
		Label: s.labels[best], Requested: requested, Granted: granted,
		NodesRead: read, Degraded: granted < requested,
		Scores: combined, Weight: totalW,
	}, nil
}

// Insert routes a labelled observation to its shard by content hash and
// inserts it under the shard write lock; the remaining shards keep
// serving reads untouched. This is the serving form of the paper's
// online learning requirement. On a durable server the insert is
// appended to the shard's write-ahead log first (pre-validated so the
// apply cannot fail), under the same lock, so a crash after the ack
// replays it.
func (s *Server) Insert(x []float64, label int) error {
	if len(x) != s.dim {
		return fmt.Errorf("server: point dim %d != model dim %d", len(x), s.dim)
	}
	if err := s.writeAllowed(); err != nil {
		return err
	}
	idx := RouteShard(x, len(s.shards))
	sh := s.shards[idx]
	var rec []byte
	if s.durableOn() {
		// Log-before-apply requires the apply to be total: reject here
		// exactly what core.MultiTree.Insert would reject, so no logged
		// record can fail replay.
		if err := s.checkWrite(x, label); err != nil {
			return err
		}
		rec = encodeRecord(x, int64(label))
	}
	sh.mu.Lock()
	if rec != nil {
		if err := s.logAppend(idx, rec); err != nil {
			sh.mu.Unlock()
			return err
		}
	}
	err := s.countWrite(sh, sh.tree.Insert(x, label), true)
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	s.inserts.Add(1)
	return nil
}

// checkWrite refuses an observation whose apply would fail — an unknown
// class label or a coordinate stats.CheckPoint refuses — the
// pre-validation that keeps the WAL free of records replay cannot apply.
func (s *Server) checkWrite(x []float64, label int) error {
	if !slices.Contains(s.labels, label) {
		return fmt.Errorf("server: unknown class label %d", label)
	}
	return stats.CheckPoint(x)
}

// Learn is Insert under the name stream.Engine expects, so
// stream.RunBatch can drive a live server for ingest-while-serving.
func (s *Server) Learn(x []float64, label int) error { return s.Insert(x, label) }

// ClassifyBatchBudgets classifies xs[i] with budget budgets[i],
// returning predictions in input order (workers ≤ 0 = GOMAXPROCS,
// matching the core.Classifier implementation of the same contract).
// Budgets are literal here — 0 means zero node reads, the level-0
// answer — matching the stream.Engine contract, where each object's
// budget is exactly what its inter-arrival gap allowed; only the hard
// MaxBudget cap applies. A batch is a pool of solo classifications:
// each item passes the admission controller on its own and hands back
// what it did not spend when it finishes, so a batch cannot starve
// single requests or its own later items. Together with Learn this
// implements stream.Engine.
func (s *Server) ClassifyBatchBudgets(xs [][]float64, budgets []int, workers int) ([]int, error) {
	if len(budgets) != len(xs) {
		return nil, fmt.Errorf("server: %d budgets for %d objects", len(budgets), len(xs))
	}
	preds := make([]int, len(xs))
	errs := make([]error, len(xs))
	core.ForEach(len(xs), workers, func(i int) {
		res, err := s.classifyResolved(xs[i], s.cfg.CapBudget(budgets[i]))
		preds[i], errs[i] = res.Label, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return preds, nil
}

// RouteShard hashes an observation's float bits to one of n shards —
// the content-hash routing every workload shares, so a snapshot
// reloaded into the same shard count routes identically, and a
// scatter-gather proxy over n single-shard groups partitions the stream
// exactly as an n-shard single process would.
func RouteShard(x []float64, n int) int {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return int(h.Sum64() % uint64(n))
}

// Stats is a point-in-time summary of a served workload, served by
// /stats.
type Stats struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Shards         int     `json:"shards"`
	Observations   int     `json:"observations"`
	ShardSizes     []int   `json:"shard_sizes"`
	Labels         []int   `json:"labels"`
	Requests       int64   `json:"requests"`
	Inserts        int64   `json:"inserts"`
	NodesRequested int64   `json:"nodes_requested"`
	NodesGranted   int64   `json:"nodes_granted"`
	NodesRead      int64   `json:"nodes_read"`
	// Degraded counts requests whose granted budget fell short of what
	// they asked for — with Requests, the load signal as a rate.
	Degraded int64 `json:"degraded_requests"`
	Draining bool  `json:"draining"`
	// Nodes is the total tree node count across shards — the bounded-
	// memory observable of a decaying server.
	Nodes int `json:"nodes"`
	// Decay reports the forgetting state: whether any shard decays, the
	// largest shard epoch (0 on a cluster server, which fades on its
	// clock and has no epochs), the effective (decayed) total mass, and
	// what this process's decay steps pruned — not the model's lifetime
	// count, so a recovered server or a follower reads less than its
	// primary.
	DecayEnabled   bool    `json:"decay_enabled"`
	DecayEpoch     int64   `json:"decay_epoch"`
	Weight         float64 `json:"weight"`
	PointsPruned   int64   `json:"points_pruned"`
	SubtreesPruned int64   `json:"subtrees_pruned"`
	// SoA aggregates the shards' descent-mirror maintenance: whole
	// builds, insert repairs, and structural mutations that dropped a
	// mirror. All zero for workloads without a mirror.
	SoARebuilds      int64 `json:"soa_rebuilds"`
	SoAPatches       int64 `json:"soa_patches"`
	SoAInvalidations int64 `json:"soa_invalidations"`
	// Durability reports the write-ahead-log state: whether inserts are
	// logged, whether WAL replay is still rebuilding the model (writes
	// rejected, /readyz answering 503), the replay and group-commit counters
	// and the current checkpoint generation. All zero when the server
	// runs memory-only.
	WALEnabled         bool   `json:"wal_enabled"`
	Recovering         bool   `json:"recovering"`
	WALAppends         int64  `json:"wal_appends"`
	WALSyncs           int64  `json:"wal_syncs"`
	WALBytes           int64  `json:"wal_bytes"`
	WALReplayed        int64  `json:"wal_replayed"`
	WALDroppedRecords  int64  `json:"wal_dropped_records"`
	SnapshotGeneration uint64 `json:"snapshot_generation"`
	// Where the last restart's wall time went, in milliseconds: the whole
	// of it (snapshot decode through closing checkpoint) and its parts.
	// Replay groups run side by side; WALReplayMs and MirrorBuildMs are
	// those of the group that took longest. All zero when memory-only.
	RecoverMs        float64 `json:"recover_ms,omitempty"`
	SnapshotDecodeMs float64 `json:"snapshot_decode_ms,omitempty"`
	WALReplayMs      float64 `json:"wal_replay_ms,omitempty"`
	MirrorBuildMs    float64 `json:"mirror_build_ms,omitempty"`
	CheckpointMs     float64 `json:"checkpoint_ms,omitempty"`
	// Checkpoints counts the checkpoints this process cut, background
	// ones included; WALBytesSinceCheckpoint is the framed log bytes a
	// restart would replay now; CheckpointLockMs is the longest any
	// checkpoint held every shard lock; CheckpointError is the last
	// background checkpoint's failure, empty once one succeeds. All
	// omitted when memory-only.
	Checkpoints             int64   `json:"checkpoints,omitempty"`
	WALBytesSinceCheckpoint int64   `json:"wal_bytes_since_checkpoint,omitempty"`
	CheckpointLockMs        float64 `json:"checkpoint_lock_ms,omitempty"`
	CheckpointError         string  `json:"checkpoint_error,omitempty"`
	// Replication reports the primary/replica state: this process's role
	// and fencing epoch, the shipped-LSN fan-out counters on a primary,
	// and the applied-LSN / staleness bound on a follower. StalenessMs is
	// the milliseconds since the follower last knew it matched the
	// primary's shipped LSN (−1 before the first bootstrap completes); a
	// caught-up follower's bound stays near the heartbeat interval, and a
	// paused or disconnected tail makes it grow without limit.
	Role           string `json:"role,omitempty"`
	Epoch          uint64 `json:"epoch"`
	Fenced         bool   `json:"fenced"`
	FencedBy       uint64 `json:"fenced_by,omitempty"`
	ReplFollowers  int64  `json:"repl_followers"`
	ReplShippedLSN uint64 `json:"repl_shipped_lsn"`
	// ReplSubBuffered is the per-attached-follower hub buffer occupancy
	// in frames (sorted ascending; capacity replSubBuffer each), and
	// ReplOverflowCuts the lifetime count of subscribers cut for
	// overflowing theirs — the back-pressure observables a proxy prober
	// or operator watches to see a slow follower before it is dropped.
	ReplSubBuffered  []int  `json:"repl_sub_buffered,omitempty"`
	ReplOverflowCuts int64  `json:"repl_overflow_cuts"`
	AppliedLSN       uint64 `json:"applied_lsn"`
	StalenessMs      int64  `json:"staleness_ms"`
	ReplConnected    bool   `json:"repl_connected"`
	// ReplTailError is why a follower's tail last dropped or failed to
	// connect, cleared when it reconnects.
	ReplTailError string `json:"repl_tail_error,omitempty"`
}

// Stats returns a point-in-time summary of shard sizes and the
// admission counters. The ratio NodesGranted/NodesRequested is the
// load signal: it falls below 1 exactly when the admission controller
// is coarsening answers to hold the node-read rate at capacity.
func (s *Server) Stats() Stats {
	st := s.baseStats()
	st.Labels = s.Labels()
	return st
}
