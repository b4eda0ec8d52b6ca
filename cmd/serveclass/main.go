// Command serveclass runs the anytime classification server: a sharded
// set of multi-class Bayes trees served over HTTP with per-request
// anytime budgets, a global node-read admission controller, online
// learning via /insert, and snapshot-based warm starts.
//
// Start from a named data set, sharded four ways, with an admission
// capacity of 200k node reads per second:
//
//	serveclass -dataset covertype -scale 0.05 -shards 4 -nps 200000
//
// Warm-start from (and persist back to) a snapshot:
//
//	serveclass -snapshot model.btsn -addr :8080
//
// Track concept drift with exponential forgetting: weights fade by
// 2^(-λ) per decay epoch, one epoch per -decay-every writes to a shard,
// and the write that ends an epoch sweeps its shard, pruning
// observations and subtrees whose decayed weight fell below
// -min-weight, bounding the model:
//
//	serveclass -dataset covertype -decay-lambda 0.1 -decay-every 500 -min-weight 0.05
//
// Run a read-only replica that tails a primary's WAL stream, serves
// follower reads with a reported staleness bound, and can be promoted
// (SIGHUP or -promote-file) when the primary dies:
//
//	serveclass -wal-dir /data/replica -follow http://primary:8080
//
// Endpoints: POST /classify ({"x":[...],"budget":25}; NDJSON body for
// batch streaming), POST /insert ({"x":[...],"label":2}; NDJSON for
// bulk ingest), GET /stats, GET /healthz (liveness), GET /readyz
// (readiness), GET /replicate (replication stream). On SIGTERM or
// SIGINT the server drains gracefully: /readyz flips to 503 so load
// balancers stop routing here, in-flight requests finish within the
// -drain timeout, and the model is snapshotted back to -snapshot if
// set.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/registry"
	"bayestree/internal/serve"
	"bayestree/internal/server"
)

// options are the command's flags: the shared serving set plus the
// classifier's own — its bootstrap, query strategy and decay rate.
type options struct {
	*serve.Flags
	dataset      string
	scale        float64
	emptyDim     int
	emptyLabels  string
	seed         int64
	strategy     string
	priority     string
	pooled       bool
	decayLambda  float64
	tenantLabels string
}

// register declares every flag on fs and installs the usage text.
func register(fs *flag.FlagSet) *options {
	o := &options{Flags: serve.RegisterFlags(fs, serve.FlagDefaults{
		Addr: ":8080", Budget: 32, MaxBudget: server.DefaultMaxBudget, TenantDim: 3,
	})}
	fs.StringVar(&o.dataset, "dataset", "", "bootstrap data set when no snapshot exists (pendigits|letter|gender|covertype)")
	fs.Float64Var(&o.scale, "scale", 0.05, "bootstrap data set scale in (0,1]")
	fs.IntVar(&o.emptyDim, "empty-dim", 0, "bootstrap an empty model of this dimensionality when no snapshot or dataset is given — the model is built entirely by ingest traffic")
	fs.StringVar(&o.emptyLabels, "empty-labels", "0,1,2", "comma-separated class label set of an -empty-dim bootstrap")
	fs.Int64Var(&o.seed, "seed", 42, "bootstrap shuffle seed")
	fs.StringVar(&o.strategy, "strategy", "glo", "descent strategy glo|bft|dft")
	fs.StringVar(&o.priority, "priority", "prob", "descent priority prob|geom")
	fs.BoolVar(&o.pooled, "pooled", false, "bootstrap trees with pooled per-entry variance")
	fs.Float64Var(&o.decayLambda, "decay-lambda", 0, "concept-drift forgetting rate λ: weights fade 2^(-λ) per decay epoch (0 = append-only, never forget)")
	fs.StringVar(&o.tenantLabels, "tenant-default-labels", "0,1,2", "multi-tenant: comma-separated label set of tenants created on first write")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"Usage: serveclass [flags]\n\n"+
				"Serve anytime classification over HTTP from a sharded Bayes tree model.\n"+
				"Model source: -snapshot (warm start), -dataset (bootstrap), or -empty-dim\n"+
				"(start empty and let ingest traffic build the model); one is required.\n"+
				"-strategy and -priority set the descent, one key per strategy; -pooled\n"+
				"bootstraps trees that share one variance per entry across classes.\n"+
				"-decay-lambda enables exponential forgetting (concept-drift tracking with\n"+
				"bounded memory); -decay-every sets the epoch length in writes to a shard,\n"+
				"and -min-weight the pruning floor of the sweep that ends each epoch.\n"+
				"-wal-dir makes ingest durable: every insert is appended to a per-shard\n"+
				"write-ahead log (group-committed every -fsync-every), recovery replays the\n"+
				"log tail over the latest checkpoint, and a drain checkpoints + truncates.\n"+
				"-follow runs a read-only replica of a primary: it bootstraps from the\n"+
				"primary's checkpoint, tails its WAL stream, and can be promoted with\n"+
				"SIGHUP or -promote-file when the primary dies.\n"+
				"-tenants-dir serves a multi-tenant model registry instead: named models\n"+
				"at /t/{tenant}/classify etc., created on first write (or PUT /t/{tenant}),\n"+
				"each durable in its own subdirectory, LRU-paged to disk beyond\n"+
				"-max-resident; the legacy routes alias the 'default' tenant.\n\n"+
				"Endpoints:\n"+
				"  POST /classify   {\"x\":[...],\"budget\":25}; NDJSON body streams a batch\n"+
				"  POST /insert     {\"x\":[...],\"label\":2}; NDJSON body bulk-ingests\n"+
				"                   (coordinates finite, |x| ≤ 1e150; else 400)\n"+
				"  GET  /stats      shard sizes, admission, WAL and replication counters\n"+
				"  GET  /healthz    liveness: 200 once listening\n"+
				"  GET  /readyz     readiness: 503 while recovering or draining\n"+
				"  GET  /replicate  replication stream (checkpoint + live WAL tail)\n\nFlags:\n")
		fs.PrintDefaults()
	}
	return o
}

func main() {
	o := register(flag.CommandLine)
	flag.Parse()
	w, err := o.workload(flag.Args())
	if err == nil {
		err = serve.Main(o.Flags, w)
	}
	serve.Exit("serveclass", err)
}

// workload validates the command's own flags and describes the
// classification workload to the shared runner.
func (o *options) workload(args []string) (serve.Workload[*server.Server], error) {
	var w serve.Workload[*server.Server]
	if len(args) > 0 {
		return w, serve.UsageErrorf("unexpected arguments %v", args)
	}
	strat, prio, err := serve.ParseDescent(o.strategy, o.priority)
	if err != nil {
		return w, err
	}
	cfg, err := o.Config("decay-lambda", o.decayLambda)
	if err != nil {
		return w, err
	}
	// A classifier's floor must stay below 1, a fresh observation's weight.
	if err := cfg.Decay.Validate(); err != nil {
		return w, serve.UsageErrorf("%v", err)
	}
	cfg.Query = core.ClassifierOptions{Strategy: strat, Priority: prio}
	if o.TenantsDir != "" && o.dataset != "" {
		return w, serve.UsageErrorf("-tenants-dir is exclusive with -dataset")
	}
	labels, err := parseLabelList(o.tenantLabels)
	if err != nil {
		return w, serve.UsageErrorf("-tenant-default-labels: %v", err)
	}
	return serve.Workload[*server.Server]{
		Name:         "serveclass",
		Config:       cfg,
		Decode:       server.FromSnapshot,
		Bootstrap:    func() (*server.Server, error) { return o.buildServer(cfg) },
		Open:         server.OpenDurableServer,
		Follow:       server.NewFollowerServer,
		Backend:      registry.ClassifyBackend(),
		TenantLabels: labels,
		Stats:        (*server.Server).Stats,
	}, nil
}

// parseLabelList parses a comma-separated class label set.
func parseLabelList(s string) ([]int, error) {
	var labels []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad label %q", part)
		}
		labels = append(labels, v)
	}
	if len(labels) < 2 {
		return nil, fmt.Errorf("need at least two labels, got %v", labels)
	}
	return labels, nil
}

// buildServer bootstraps a fresh model: a data set routed into empty
// shards by the same hash online inserts use, or empty shards that
// ingest traffic fills.
func (o *options) buildServer(cfg server.Config) (*server.Server, error) {
	mopts := core.MultiOptions{PooledVariance: o.pooled}
	if o.dataset == "" {
		if o.emptyDim <= 0 {
			return nil, serve.UsageErrorf("need -snapshot (existing), -dataset or -empty-dim to build a model")
		}
		labels, err := parseLabelList(o.emptyLabels)
		if err != nil {
			return nil, serve.UsageErrorf("-empty-labels: %v", err)
		}
		s, err := server.NewEmpty(o.Shards, core.DefaultConfig(o.emptyDim), labels, mopts, cfg)
		if err != nil {
			return nil, err
		}
		log.Printf("bootstrapped empty model: %d dims, %d classes, %d shards — awaiting ingest", o.emptyDim, len(labels), o.Shards)
		return s, nil
	}
	ds, err := dataset.ByName(o.dataset, o.scale)
	if err != nil {
		return nil, serve.UsageErrorf("%v", err)
	}
	ds.Shuffle(o.seed)
	s, err := server.NewEmpty(o.Shards, core.DefaultConfig(ds.Dim()), ds.Classes(), mopts, cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < ds.Len(); i++ {
		if err := s.Insert(ds.X[i], ds.Y[i]); err != nil {
			return nil, fmt.Errorf("bootstrap insert %d: %w", i, err)
		}
	}
	log.Printf("bootstrapped %s: %d observations, %d classes, %d dims into %d shards in %v",
		ds.Name, ds.Len(), len(ds.Classes()), ds.Dim(), o.Shards, time.Since(start).Round(time.Millisecond))
	return s, nil
}
