// Command streamcluster demonstrates the Section 4.2 anytime clustering
// extension on a synthetic evolving stream: objects arrive with varying
// time budgets, the clustering tree parks and hitchhikes insertions under
// pressure, decayed cluster features follow concept drift, and a
// density-based offline step reports the macro clusters — with pyramidal
// snapshots enabling windowed views of the stream history.
package main

import (
	"flag"
	"fmt"
	"os"

	"bayestree/internal/clustree"
	"bayestree/internal/dataset"
	"bayestree/internal/serve"
)

func main() {
	var (
		size    = flag.Int("size", 30000, "stream length")
		classes = flag.Int("sources", 4, "number of drifting sources")
		dims    = flag.Int("dims", 2, "dimensionality")
		lambda  = flag.Float64("lambda", 0.003, "decay rate (weight halves every 1/λ)")
		drift   = flag.Float64("drift", 0.35, "drift distance over the stream")
		burst   = flag.Int("burst", 6, "every burst-th object arrives with budget 1")
		eps     = flag.Float64("eps", 0.12, "macro clustering connection radius")
		minw    = flag.Float64("minw", 5, "macro clustering core weight")
		seed    = flag.Int64("seed", 42, "seed")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"Usage: streamcluster [flags]\n\n"+
				"Demonstrate the Section-4.2 anytime clustering extension on a synthetic\n"+
				"drifting stream: budget-starved objects park in inner-node buffers and\n"+
				"hitchhike leafward, decayed cluster features follow the drift, and a\n"+
				"density-based offline step reports the macro clusters — with pyramidal\n"+
				"snapshots enabling windowed views of the stream history.\n\n"+
				"Examples:\n"+
				"  streamcluster\n"+
				"  streamcluster -size 100000 -sources 6 -lambda 0.001 -burst 3\n"+
				"  streamcluster -dims 5 -eps 0.2 -minw 10\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		serve.Exit("streamcluster", serve.UsageErrorf("unexpected arguments %v", flag.Args()))
	}
	if *size < 1 {
		serve.Exit("streamcluster", serve.UsageErrorf("-size must be ≥ 1, got %d", *size))
	}
	if *dims < 1 {
		serve.Exit("streamcluster", serve.UsageErrorf("-dims must be ≥ 1, got %d", *dims))
	}
	if *lambda < 0 {
		serve.Exit("streamcluster", serve.UsageErrorf("-lambda must be ≥ 0, got %v", *lambda))
	}

	ds, err := dataset.DriftStream(dataset.DriftSpec{
		Name: "stream", Size: *size, Classes: *classes, Features: *dims,
		DriftDistance: *drift, Seed: *seed,
	})
	if err != nil {
		fatalf("%v", err)
	}

	cfg := clustree.DefaultConfig(*dims)
	cfg.Lambda = *lambda
	tree, err := clustree.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	store, err := clustree.NewSnapshotStore(2, 4)
	if err != nil {
		fatalf("%v", err)
	}

	for i := 0; i < ds.Len(); i++ {
		budget := -1
		if *burst > 0 && i%*burst == 0 {
			budget = 1
		}
		ts := float64(i + 1)
		if err := tree.Insert(ds.X[i], ts, budget); err != nil {
			fatalf("insert %d: %v", i, err)
		}
		if i%256 == 255 {
			if err := store.Record(ts, tree.MicroClusters(0.5)); err != nil {
				fatalf("snapshot: %v", err)
			}
		}
	}
	if err := tree.Validate(); err != nil {
		fatalf("invariant violation: %v", err)
	}

	fmt.Printf("stream of %d objects, %d drifting sources, λ=%v\n", ds.Len(), *classes, *lambda)
	fmt.Printf("parked insertions: %d  leaf splits: %d  merges into micro-clusters kept the tree at weight %.1f\n",
		tree.Parked(), tree.Splits(), tree.Weight())

	mcs := tree.MicroClusters(1)
	macros, noise := clustree.MacroClusters(mcs, clustree.MacroOptions{Eps: *eps, MinWeight: *minw})
	fmt.Printf("\ncurrent view: %d micro-clusters → %d macro clusters (%d noise)\n", len(mcs), len(macros), len(noise))
	for i, m := range macros {
		fmt.Printf("  cluster %d: weight %8.1f at %s\n", i, m.Weight, coords(m.Mean))
	}

	// Windowed view over the last quarter of the stream via snapshots.
	t2 := float64(ds.Len())
	t1 := t2 * 0.75
	window, err := store.Window(t1, t2, 0.1)
	if err != nil {
		fmt.Printf("\n(windowed view unavailable: %v)\n", err)
		return
	}
	wm, wn := clustree.MacroClusters(window, clustree.MacroOptions{Eps: *eps, MinWeight: *minw / 2})
	fmt.Printf("\nwindow (%.0f, %.0f]: %d macro clusters (%d noise) — recent data only\n", t1, t2, len(wm), len(wn))
	for i, m := range wm {
		fmt.Printf("  cluster %d: weight %8.1f at %s\n", i, m.Weight, coords(m.Mean))
	}
	fmt.Printf("\nsnapshots retained: %d (pyramidal over %d timestamps)\n", store.Len(), ds.Len())
}

func coords(x []float64) string {
	s := "("
	for i, v := range x {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.2f", v)
	}
	return s + ")"
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "streamcluster: "+format+"\n", args...)
	os.Exit(1)
}
