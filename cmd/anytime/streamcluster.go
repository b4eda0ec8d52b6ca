package main

import (
	"fmt"
	"io"
	"strings"

	"bayestree/internal/clustree"
	"bayestree/internal/dataset"
	"bayestree/internal/serve"
)

// runStreamcluster demonstrates the Section 4.2 anytime clustering
// extension on a synthetic evolving stream: objects arrive with varying
// time budgets, the clustering tree parks and hitchhikes insertions under
// pressure, decayed cluster features follow concept drift, and a
// density-based offline step reports the macro clusters — with pyramidal
// snapshots enabling windowed views of the stream history.
func runStreamcluster(args []string, stdout io.Writer) error {
	fs := newFlagSet("streamcluster",
		"Demonstrate the Section-4.2 anytime clustering extension on a synthetic\n"+
			"drifting stream: budget-starved objects park in inner-node buffers and\n"+
			"hitchhike leafward, decayed cluster features follow the drift, and a\n"+
			"density-based offline step reports the macro clusters — with pyramidal\n"+
			"snapshots enabling windowed views of the stream history.\n\n"+
			"Examples:\n"+
			"  anytime streamcluster\n"+
			"  anytime streamcluster -size 100000 -sources 6 -lambda 0.001 -burst 3\n"+
			"  anytime streamcluster -dims 5 -eps 0.2 -minw 10\n")
	var (
		size    = fs.Int("size", 30000, "stream length")
		classes = fs.Int("sources", 4, "number of drifting sources")
		dims    = fs.Int("dims", 2, "dimensionality")
		lambda  = fs.Float64("lambda", 0.003, "decay rate (weight halves every 1/λ)")
		drift   = fs.Float64("drift", 0.35, "drift distance over the stream")
		burst   = fs.Int("burst", 6, "every burst-th object arrives with budget 1")
		eps     = fs.Float64("eps", 0.12, "macro clustering connection radius")
		minw    = fs.Float64("minw", 5, "macro clustering core weight")
		seed    = fs.Int64("seed", 42, "seed")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case *size < 1:
		return serve.UsageErrorf("-size must be ≥ 1, got %d", *size)
	case *dims < 1:
		return serve.UsageErrorf("-dims must be ≥ 1, got %d", *dims)
	case *lambda < 0:
		return serve.UsageErrorf("-lambda must be ≥ 0, got %v", *lambda)
	}

	ds, err := dataset.DriftStream(dataset.DriftSpec{
		Name: "stream", Size: *size, Classes: *classes, Features: *dims,
		DriftDistance: *drift, Seed: *seed,
	})
	if err != nil {
		return err
	}
	cfg := clustree.DefaultConfig(*dims)
	cfg.Lambda = *lambda
	tree, err := clustree.New(cfg)
	if err != nil {
		return err
	}
	store, err := clustree.NewSnapshotStore(2, 4)
	if err != nil {
		return err
	}
	for i := 0; i < ds.Len(); i++ {
		budget := -1
		if *burst > 0 && i%*burst == 0 {
			budget = 1
		}
		ts := float64(i + 1)
		if err := tree.Insert(ds.X[i], ts, budget); err != nil {
			return fmt.Errorf("insert %d: %w", i, err)
		}
		if i%256 == 255 {
			if err := store.Record(ts, tree.MicroClusters(0.5)); err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
		}
	}
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("invariant violation: %w", err)
	}

	fmt.Fprintf(stdout, "stream of %d objects, %d drifting sources, λ=%v\n", ds.Len(), *classes, *lambda)
	fmt.Fprintf(stdout, "parked insertions: %d  leaf splits: %d  merges into micro-clusters kept the tree at weight %.1f\n",
		tree.Parked(), tree.Splits(), tree.Weight())

	mcs := tree.MicroClusters(1)
	macros, noise := clustree.MacroClusters(mcs, clustree.MacroOptions{Eps: *eps, MinWeight: *minw})
	fmt.Fprintf(stdout, "\ncurrent view: %d micro-clusters → %d macro clusters (%d noise)\n", len(mcs), len(macros), len(noise))
	printMacros(stdout, macros)

	// Windowed view over the last quarter of the stream via snapshots.
	t2 := float64(ds.Len())
	t1 := t2 * 0.75
	window, err := store.Window(t1, t2, 0.1, *lambda)
	if err != nil {
		fmt.Fprintf(stdout, "\n(windowed view unavailable: %v)\n", err)
		return nil
	}
	wm, wn := clustree.MacroClusters(window, clustree.MacroOptions{Eps: *eps, MinWeight: *minw / 2})
	fmt.Fprintf(stdout, "\nwindow (%.0f, %.0f]: %d macro clusters (%d noise) — recent data only\n", t1, t2, len(wm), len(wn))
	printMacros(stdout, wm)
	fmt.Fprintf(stdout, "\nsnapshots retained: %d (pyramidal over %d timestamps)\n", store.Len(), ds.Len())
	return nil
}

func printMacros(w io.Writer, macros []clustree.MacroCluster) {
	for i, m := range macros {
		coords := make([]string, len(m.Mean))
		for k, v := range m.Mean {
			coords[k] = fmt.Sprintf("%.2f", v)
		}
		fmt.Fprintf(w, "  cluster %d: weight %8.1f at (%s)\n", i, m.Weight, strings.Join(coords, ", "))
	}
}
