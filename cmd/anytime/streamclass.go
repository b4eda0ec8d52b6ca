package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/eval"
	"bayestree/internal/serve"
	"bayestree/internal/stream"
)

// runStreamclass demonstrates anytime classification on a simulated data
// stream: a classifier is trained on an initial window, then objects
// arrive under a Poisson process and each is classified with exactly the
// node budget its inter-arrival gap allows (Section 1's "varying
// streams"); labelled arrivals are learned online.
//
// -window sets the batch window size: 1 (default) reproduces the strictly
// sequential online run, larger windows classify each window in parallel
// with -workers goroutines and learn the window's labels afterwards,
// trading label freshness within a window for throughput. -decay-lambda
// enables exponential forgetting for drifting streams: every -decay-every
// learned objects advance one decay epoch, fading stored weights by
// 2^(-λ) and pruning what falls below -min-weight.
func runStreamclass(args []string, stdout io.Writer) error {
	fs := newFlagSet("streamclass",
		"Simulate a Poisson data stream and classify each arrival with the anytime\n"+
			"budget its inter-arrival gap allows; labelled arrivals are learned online.\n"+
			"Use -window/-workers for the windowed parallel (batch) run and\n"+
			"-decay-lambda/-decay-every/-min-weight for drift-tracking forgetting.\n")
	var (
		dsName  = fs.String("dataset", "covertype", "data set (pendigits|letter|gender|covertype)")
		scale   = fs.Float64("scale", 0.02, "data set scale")
		loader  = fs.String("loader", "emtopdown", "bulk-loading strategy for the initial window")
		rate    = fs.Float64("rate", 200, "mean arrival rate (objects/second)")
		nps     = fs.Float64("nps", 5000, "emulated node reads per second")
		trainPc = fs.Float64("train", 0.5, "fraction used for the initial training window")
		seed    = fs.Int64("seed", 42, "seed")
		window  = fs.Int("window", 1, "batch window size: 1 = strictly sequential online run, >1 = classify each window in parallel, then learn its labels")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel classification workers per window (only used when -window > 1)")
		decayL  = fs.Float64("decay-lambda", 0, "concept-drift forgetting rate λ: weights fade 2^(-λ) per decay epoch (0 = never forget)")
		minW    = fs.Float64("min-weight", 0.05, "pruning floor for decayed observations (with -decay-lambda > 0)")
		decayN  = fs.Int("decay-every", 500, "learned objects per decay epoch (with -decay-lambda > 0)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	ds, err := loadDataset(*dsName, *scale)
	if err != nil {
		return err
	}
	ls, err := parseLoaders(*loader, false)
	if err != nil {
		return err
	}
	if len(ls) > 1 {
		return serve.UsageErrorf("-loader takes one loader, got %q", *loader)
	}
	decay := core.DecayOptions{Lambda: *decayL, MinWeight: *minW}
	switch {
	case *decayL < 0:
		return serve.UsageErrorf("-decay-lambda must be ≥ 0, got %v", *decayL)
	case *decayL > 0 && *decayN <= 0:
		return serve.UsageErrorf("-decay-every must be > 0 with -decay-lambda set, got %d", *decayN)
	case *decayL > 0:
		if err := decay.Validate(); err != nil {
			return serve.UsageErrorf("%v", err)
		}
	}
	ds.Shuffle(*seed)
	nTrain := int(*trainPc * float64(ds.Len()))
	if nTrain < len(ds.Classes())*10 {
		return fmt.Errorf("training window too small (%d)", nTrain)
	}
	trainIdx := make([]int, nTrain)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	clf, err := eval.TrainForest(ds.Subset(trainIdx, "train"), ls[0], core.DefaultConfig, core.ClassifierOptions{})
	if err != nil {
		return fmt.Errorf("training: %w", err)
	}
	items := make([]stream.Item, 0, ds.Len()-nTrain)
	for i := nTrain; i < ds.Len(); i++ {
		items = append(items, stream.Item{X: ds.X[i], Label: ds.Y[i], Labeled: true})
	}
	var engine stream.Engine = clf
	if *decayL > 0 {
		if err := clf.EnableDecay(decay); err != nil {
			return fmt.Errorf("decay: %w", err)
		}
		// The wrapper is not a *core.Classifier, so RunBatch keeps it on
		// the generic engine path at every window size — the decay clock
		// ticks for sequential (-window 1) runs too.
		engine = stream.WithDecayEvery(clf, *decayN)
	}
	budgeter := stream.Budgeter{NodesPerSecond: *nps, MaxNodes: 500}
	start := time.Now()
	res, err := stream.RunBatch(engine, items, stream.Poisson{Rate: *rate}, budgeter, *seed, *window, *workers)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "stream of %d objects at rate %.0f/s, %.0f node-reads/s\n", res.Processed, *rate, *nps)
	fmt.Fprintf(stdout, "processed in %v (%.0f objects/s wall clock, window=%d, workers=%d)\n",
		elapsed.Round(time.Millisecond), float64(res.Processed)/elapsed.Seconds(), *window, *workers)
	fmt.Fprintf(stdout, "accuracy (online, anytime budgets): %.4f\n", res.Accuracy)
	fmt.Fprintf(stdout, "node budget: min=%d mean=%.1f max=%d\n", res.MinBudget, res.MeanBudget, res.MaxBudget)
	fmt.Fprintf(stdout, "learned online: %d objects\n", res.Learned)
	fmt.Fprintln(stdout, "budget histogram (bucket → objects):")
	buckets := make([]int, 0, len(res.BudgetHist))
	for b := range res.BudgetHist {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	for _, b := range buckets {
		fmt.Fprintf(stdout, "  ≤%-5d %d\n", b, res.BudgetHist[b])
	}
	return nil
}
