// Command loadgen drives a live serveclass or servecluster instance
// with open-loop (Poisson, bursty on/off, diurnal ramp, adversarial
// hot-key) or closed-loop (fixed concurrency) mixed traffic, records
// per-request latency into an HDR-style histogram, scores answer
// quality against a labelled holdout, and reports p50/p90/p99/p999/max
// latency plus quality-under-load (granted-budget fraction,
// degraded-answer fraction, accuracy) as JSON or NDJSON.
//
//	loadgen -target http://localhost:8080 -process poisson -rate 500 -duration 30s
//	loadgen -selfserve class -process closed -concurrency 8 -duration 10s \
//	    -slo-p99 50ms -slo-error-rate 1e-9 -slo-accuracy 0.9
//
// With any -slo-* flag set, a violated objective makes loadgen exit 1
// — the CI regression-gate mode. Usage errors exit 2.
//
// -selfserve starts an in-process server (classification or
// clustering) on a loopback port and aims the harness at it: the
// no-dependency smoke mode CI runs, and a one-command way to measure a
// configuration without deploying anything.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/loadgen"
	"bayestree/internal/registry"
	"bayestree/internal/server"
)

func main() {
	var (
		target      = flag.String("target", "", "base URL of the server under load (mutually exclusive with -selfserve)")
		selfserve   = flag.String("selfserve", "", "start an in-process server to load: 'class' or 'cluster'")
		workload    = flag.String("workload", "", "traffic kind: 'classify' or 'cluster' (default: inferred from -selfserve, else classify)")
		process     = flag.String("process", "poisson", "arrival process: poisson|bursty|diurnal|hotkey|closed")
		rate        = flag.Float64("rate", 500, "open-loop offered rate, requests/second")
		concurrency = flag.Int("concurrency", 0, "closed-loop workers / open-loop in-flight cap (0 = defaults)")
		duration    = flag.Duration("duration", 10*time.Second, "measured phase length")
		insertFrac  = flag.Float64("insert-frac", 0.2, "fraction of classification requests that are inserts")
		budget      = flag.Int("budget", 32, "per-request anytime budget (0 = server default, <0 = max)")
		seed        = flag.Int64("seed", 1, "traffic seed")
		warmup      = flag.Int("warmup", 0, "observations inserted before measuring (0 = default, <0 = none)")
		holdout     = flag.Int("holdout", 0, "labelled holdout size (0 = default)")
		out         = flag.String("out", "-", "report path (- for stdout)")
		ndjson      = flag.Bool("ndjson", false, "emit NDJSON cells instead of one JSON document")
		shards      = flag.Int("shards", 4, "selfserve: shard count")
		nps         = flag.Float64("nps", 0, "selfserve: admission capacity, node reads/second (0 = no admission)")
		tenants     = flag.Int("tenants", 0, "spread traffic across N tenants via /t/{tenant} paths with Zipf popularity (0 = single-tenant)")
		tenantSkew  = flag.Float64("tenant-skew", 0, "Zipf exponent of tenant popularity (<=1 = default 1.2)")
		maxResident = flag.Int("max-resident", 0, "selfserve multi-tenant: resident-model cap of the in-process registry (0 = registry default)")
		sloP50      = flag.Duration("slo-p50", 0, "SLO: max p50 latency (0 = unchecked)")
		sloP99      = flag.Duration("slo-p99", 0, "SLO: max p99 latency")
		sloP999     = flag.Duration("slo-p999", 0, "SLO: max p999 latency")
		sloMax      = flag.Duration("slo-max", 0, "SLO: max latency")
		sloErrRate  = flag.Float64("slo-error-rate", 0, "SLO: max error rate (use a tiny epsilon to require zero)")
		sloAccuracy = flag.Float64("slo-accuracy", 0, "SLO: min holdout accuracy")
		sloGranted  = flag.Float64("slo-granted", 0, "SLO: min granted-budget fraction")
		sloMinReqs  = flag.Int64("slo-min-requests", 0, "SLO: min completed requests (guards vacuous passes)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"Usage: loadgen [flags]\n\n"+
				"Drive a serveclass/servecluster instance with open- or closed-loop\n"+
				"traffic and report tail latency plus answer quality under load.\n\n"+
				"Examples:\n"+
				"  loadgen -target http://localhost:8080 -process poisson -rate 500\n"+
				"  loadgen -target http://localhost:8080 -process diurnal -rate 800 -duration 30s\n"+
				"  loadgen -selfserve cluster -process hotkey -rate 2000 -budget 8\n"+
				"  loadgen -selfserve class -process closed -concurrency 8 \\\n"+
				"      -slo-p99 50ms -slo-error-rate 1e-9 -slo-accuracy 0.9   # exit 1 on breach\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: unexpected arguments %v\n\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if (*target == "") == (*selfserve == "") {
		fmt.Fprintln(os.Stderr, "loadgen: exactly one of -target or -selfserve is required")
		os.Exit(2)
	}

	wl := loadgen.Workload(*workload)
	switch *selfserve {
	case "":
	case "class":
		if wl == "" {
			wl = loadgen.WorkloadClassify
		}
	case "cluster":
		if wl == "" {
			wl = loadgen.WorkloadCluster
		}
	default:
		fmt.Fprintf(os.Stderr, "loadgen: -selfserve %q (want 'class' or 'cluster')\n", *selfserve)
		os.Exit(2)
	}
	if wl == "" {
		wl = loadgen.WorkloadClassify
	}
	if wl != loadgen.WorkloadClassify && wl != loadgen.WorkloadCluster {
		fmt.Fprintf(os.Stderr, "loadgen: -workload %q (want 'classify' or 'cluster')\n", *workload)
		os.Exit(2)
	}

	proc, err := loadgen.NewProcess(*process, *rate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}

	url := *target
	if *selfserve != "" {
		var stop func()
		url, stop, err = startSelfServe(*selfserve, *shards, *nps, *tenants, *maxResident)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: selfserve: %v\n", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "loadgen: in-process %s server at %s (shards=%d nps=%g tenants=%d)\n",
			*selfserve, url, *shards, *nps, *tenants)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	rep, err := loadgen.Run(ctx, loadgen.Scenario{
		Target:      url,
		Workload:    wl,
		Proc:        proc,
		Concurrency: *concurrency,
		Duration:    *duration,
		Mix:         loadgen.Mix{InsertFraction: *insertFrac, Budget: *budget},
		Seed:        *seed,
		HoldoutSize: *holdout,
		Warmup:      *warmup,
		Tenants:     *tenants,
		TenantSkew:  *tenantSkew,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}

	slo := loadgen.SLO{
		P50: *sloP50, P99: *sloP99, P999: *sloP999, Max: *sloMax,
		MaxErrorRate: *sloErrRate, MinAccuracy: *sloAccuracy,
		MinGrantedFraction: *sloGranted, MinRequests: *sloMinReqs,
	}
	breaches := slo.Evaluate(rep)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if *ndjson {
		err = rep.WriteNDJSON(w)
	} else {
		err = rep.WriteJSON(w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: write report: %v\n", err)
		os.Exit(1)
	}

	all := rep.Latency["all"]
	fmt.Fprintf(os.Stderr,
		"loadgen: %s/%s %d reqs %.0f rps | p50 %.2fms p99 %.2fms p999 %.2fms max %.2fms | granted %.3f degraded %.3f acc %.3f logloss %.3f err %.5f\n",
		rep.Workload, rep.Process, rep.Requests, rep.AchievedRPS,
		all.P50Ms, all.P99Ms, all.P999Ms, all.MaxMs,
		rep.Quality.GrantedFraction, rep.Quality.DegradedFraction,
		rep.Quality.Accuracy, rep.Quality.LogLoss, rep.ErrorRate)
	if len(breaches) > 0 {
		for _, b := range breaches {
			fmt.Fprintf(os.Stderr, "loadgen: SLO breach: %s\n", b)
		}
		os.Exit(1)
	}
}

// startSelfServe boots an in-process server of the given kind on a
// loopback port, returning its base URL and a shutdown func. With
// tenants > 0 the in-process server is a multi-tenant registry backed
// by a throwaway directory, so paging under Zipf traffic can be
// measured with one command.
func startSelfServe(kind string, shards int, nps float64, tenants, maxResident int) (string, func(), error) {
	cfg := server.Config{NodesPerSecond: nps}
	var handler http.Handler
	closeSrv := func() {}
	if tenants > 0 {
		dir, err := os.MkdirTemp("", "loadgen-registry-*")
		if err != nil {
			return "", nil, err
		}
		opts := registry.Options{
			Dir:            dir,
			MaxResident:    maxResident,
			NodesPerSecond: nps,
			// Smoke mode on a throwaway dir: group-commit the WALs so
			// tenant churn measures paging, not per-append fsyncs.
			FsyncEvery: 5 * time.Millisecond,
		}
		switch kind {
		case "class":
			opts.Defaults = registry.TenantConfig{Dim: 3, Labels: []int{0, 1, 2}, Shards: shards}
			r, err := registry.Open(opts, registry.ClassifyBackend())
			if err != nil {
				os.RemoveAll(dir)
				return "", nil, err
			}
			handler, closeSrv = r.Handler(), func() { r.Close(); os.RemoveAll(dir) }
		case "cluster":
			opts.Defaults = registry.TenantConfig{Dim: 2, Shards: shards}
			r, err := registry.Open(opts, registry.ClusterBackend())
			if err != nil {
				os.RemoveAll(dir)
				return "", nil, err
			}
			handler, closeSrv = r.Handler(), func() { r.Close(); os.RemoveAll(dir) }
		default:
			os.RemoveAll(dir)
			return "", nil, fmt.Errorf("unknown kind %q", kind)
		}
	} else {
		switch kind {
		case "class":
			s, err := server.NewEmpty(shards, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, cfg)
			if err != nil {
				return "", nil, err
			}
			handler = s.Handler()
		case "cluster":
			s, err := server.NewCluster(clustree.DefaultConfig(2), shards, cfg, server.ClusterOptions{})
			if err != nil {
				return "", nil, err
			}
			handler = s.Handler()
		default:
			return "", nil, fmt.Errorf("unknown kind %q", kind)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeSrv()
		return "", nil, err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() { hs.Close(); closeSrv() }, nil
}
