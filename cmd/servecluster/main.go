// Command servecluster runs the anytime clustering server: a sharded
// set of Section-4.2 clustering trees (ClusTrees) served over HTTP with
// per-object anytime descent budgets, a global node-visit admission
// controller and snapshot-based warm starts — the clustering
// counterpart of serveclass, running on the same engine.
//
// Start an empty two-dimensional server, sharded four ways, forgetting
// with half-life 1/0.004 stream objects:
//
//	servecluster -dim 2 -shards 4 -lambda 0.004
//
// Warm-start from (and persist back to) a snapshot:
//
//	servecluster -snapshot clusters.btsn -addr :8081
//
// Run a read-only replica that tails a primary's WAL stream and can be
// promoted (SIGHUP or -promote-file) when the primary dies:
//
//	servecluster -wal-dir /data/replica -follow http://primary:8081
//
// Endpoints: POST /cluster ({"x":[...],"budget":3}; NDJSON body for
// bulk ingest), GET /microclusters?minw=, GET /macroclusters?eps=&minw=,
// GET /stats, GET /healthz (liveness), GET /readyz (readiness), GET
// /replicate (replication stream). On SIGTERM or SIGINT the server
// drains gracefully: /readyz flips to 503, in-flight requests finish
// within the -drain timeout, and the model is snapshotted back to
// -snapshot if set.
package main

import (
	"flag"
	"fmt"
	"io"

	"bayestree/internal/clustree"
	"bayestree/internal/registry"
	"bayestree/internal/serve"
	"bayestree/internal/server"
)

// options are the command's flags: the shared serving set plus the
// clustering workload's own — its bootstrap and decay rate.
type options struct {
	*serve.Flags
	dim    int
	lambda float64
}

// register declares every flag on fs and installs the usage text.
func register(fs *flag.FlagSet) *options {
	o := &options{Flags: serve.RegisterFlags(fs, serve.FlagDefaults{
		Addr: ":8081", Budget: 8, MaxBudget: 64, TenantDim: 2,
	})}
	fs.IntVar(&o.dim, "dim", 0, "observation dimensionality when no snapshot exists")
	fs.Float64Var(&o.lambda, "lambda", 0.004, "decay rate: a weight halves every 1/λ stream objects (0 = never forget)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"Usage: servecluster [flags]\n\n"+
				"Serve the Section-4.2 anytime clustering extension over HTTP from a sharded\n"+
				"ClusTree model. Model source: -snapshot (warm start) or -dim (empty start);\n"+
				"one is required. Each ingested object descends with an anytime budget —\n"+
				"under overload objects park in inner-node buffers and hitchhike leafward\n"+
				"later, so the stream never backs up. -lambda sets exponential forgetting\n"+
				"per stream object; every -decay-every writes to a shard, the write that\n"+
				"ends the epoch sweeps its shard of micro-clusters below -min-weight.\n"+
				"-wal-dir makes ingest durable: objects are appended to a per-shard\n"+
				"write-ahead log (group-committed every -fsync-every) and recovery\n"+
				"replays the log tail over the latest checkpoint.\n\n"+
				"Examples:\n"+
				"  servecluster -dim 2 -shards 4 -lambda 0.004\n"+
				"  servecluster -snapshot clusters.btsn -nps 50000\n\n"+
				"Endpoints:\n"+
				"  POST /cluster        {\"x\":[...],\"budget\":3}; NDJSON body bulk-ingests\n"+
				"  GET  /microclusters  ?minw=0.5    current micro-clusters\n"+
				"  GET  /macroclusters  ?eps=&minw=  density-based offline clustering\n"+
				"  GET  /stats          shard sizes, parked/merge/split, admission and replication counters\n"+
				"  GET  /healthz        liveness: 200 once listening\n"+
				"  GET  /readyz         readiness: 503 while recovering or draining\n"+
				"  GET  /replicate      replication stream (checkpoint + live WAL tail)\n\nFlags:\n")
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
	serve.Exit("servecluster", err)
}

// workload validates the command's own flags and describes the
// clustering workload to the shared runner.
func (o *options) workload(args []string) (serve.Workload[*server.ClusterServer], error) {
	var w serve.Workload[*server.ClusterServer]
	if len(args) > 0 {
		return w, serve.UsageErrorf("unexpected arguments %v", args)
	}
	// No core.DecayOptions.Validate here: its MinWeight < 1 bound is a
	// classifier rule (fresh observations weigh 1); micro-cluster floors
	// are decayed object counts and may usefully exceed 1.
	cfg, err := o.Config("lambda", o.lambda)
	if err != nil {
		return w, err
	}
	var copts server.ClusterOptions
	return serve.Workload[*server.ClusterServer]{
		Name:   "servecluster",
		Config: cfg,
		Decode: func(r io.Reader, cfg server.Config) (*server.ClusterServer, error) {
			return server.ClusterFromSnapshot(r, cfg, copts)
		},
		Bootstrap: func() (*server.ClusterServer, error) {
			if o.dim < 1 {
				return nil, serve.UsageErrorf("need -snapshot (existing) or -dim ≥ 1 to build a model")
			}
			ccfg := clustree.DefaultConfig(o.dim)
			// A zero cfg.Decay.Lambda is "never forget", overriding the tree default.
			ccfg.Lambda = cfg.Decay.Lambda
			return server.NewCluster(ccfg, o.Shards, cfg, copts)
		},
		Open: func(d server.DurabilityOptions, cfg server.Config, boot func() (*server.ClusterServer, error)) (*server.ClusterServer, error) {
			return server.OpenDurableCluster(d, cfg, copts, boot)
		},
		Follow: func(d server.DurabilityOptions, cfg server.Config, primaryURL string) (*server.Follower[*server.ClusterServer], error) {
			return server.NewFollowerCluster(d, cfg, copts, primaryURL)
		},
		Backend: registry.ClusterBackend(copts),
		Stats:   func(s *server.ClusterServer) server.Stats { return s.Stats().Stats },
	}, nil
}
