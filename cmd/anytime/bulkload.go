package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
	"bayestree/internal/mbr"
	"bayestree/internal/stats"
)

// runBulkload compares the bulk-loading strategies structurally: build
// time, tree shape (height, node count, fanout, occupancy) and invariant
// validation, per class of a data set. -dump prints the level structure
// of one class tree — the textual analogue of Figure 1c.
func runBulkload(args []string, stdout io.Writer) error {
	fs := newFlagSet("bulkload",
		"Build one tree per class of a data set with each loader and compare build\n"+
			"time, tree shape and invariants; -dump prints the first loader's first\n"+
			"class tree level by level.\n")
	var (
		dsName  = fs.String("dataset", "pendigits", "data set (pendigits|letter|gender|covertype)")
		scale   = fs.Float64("scale", 0.2, "data set scale in (0,1]")
		loaders = fs.String("loaders", strings.Join(bulkload.Names(), ","), "comma-separated loaders")
		dump    = fs.Bool("dump", false, "print the level structure of the first class tree")
		seed    = fs.Int64("seed", 42, "seed")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	ds, err := loadDataset(*dsName, *scale)
	if err != nil {
		return err
	}
	ls, err := parseLoaders(*loaders, false)
	if err != nil {
		return err
	}
	ds.Shuffle(*seed)
	byClass := ds.ByClass()
	labels := ds.Classes()
	cfg := core.DefaultConfig(ds.Dim())
	fmt.Fprintf(stdout, "dataset %s: %d observations, %d classes, %d features\n", ds.Name, ds.Len(), len(labels), ds.Dim())
	fmt.Fprintf(stdout, "tree config: fanout [%d,%d], leaf [%d,%d]\n\n", cfg.MinFanout, cfg.MaxFanout, cfg.MinLeaf, cfg.MaxLeaf)
	fmt.Fprintf(stdout, "%-12s %10s %8s %8s %8s %9s %9s %8s\n",
		"loader", "build", "height", "nodes", "leaves", "fanout", "leafocc", "valid")

	for i, loader := range ls {
		start := time.Now()
		var trees []*core.MultiTree
		for _, y := range labels {
			t, err := loader.Build(byClass[y], cfg, y)
			if err != nil {
				return fmt.Errorf("%s class %d: %w", loader.Name(), y, err)
			}
			trees = append(trees, t)
		}
		elapsed := time.Since(start)
		agg := aggregateStats(trees)
		valid := "ok"
		for c, t := range trees {
			if err := t.Validate(); err != nil {
				valid = fmt.Sprintf("class %d: %v", labels[c], err)
				break
			}
		}
		fmt.Fprintf(stdout, "%-12s %10s %8.1f %8d %8d %9.2f %9.2f %8s\n",
			loader.Name(), elapsed.Round(time.Millisecond), agg.avgHeight, agg.nodes, agg.leaves,
			agg.avgFanout, agg.avgLeafOcc, valid)
		if *dump && i == 0 {
			dumpTree(stdout, trees[0], labels[0])
		}
	}
	return nil
}

type agg struct {
	avgHeight             float64
	nodes, leaves         int
	avgFanout, avgLeafOcc float64
}

func aggregateStats(trees []*core.MultiTree) agg {
	var a agg
	var fanoutSum, occSum float64
	var fanoutN, occN int
	for _, t := range trees {
		s := t.Stats()
		a.avgHeight += float64(s.Height)
		a.nodes += s.Nodes
		a.leaves += s.Leaves
		if s.InnerNodes > 0 {
			fanoutSum += s.AvgFanout * float64(s.InnerNodes)
			fanoutN += s.InnerNodes
		}
		occSum += s.AvgLeafOcc * float64(s.Leaves)
		occN += s.Leaves
	}
	a.avgHeight /= float64(len(trees))
	if fanoutN > 0 {
		a.avgFanout = fanoutSum / float64(fanoutN)
	}
	if occN > 0 {
		a.avgLeafOcc = occSum / float64(occN)
	}
	return a
}

// dumpTree prints node counts per depth and a sample of entry summaries.
func dumpTree(w io.Writer, t *core.MultiTree, label int) {
	fmt.Fprintf(w, "\nclass %d tree (%d observations):\n", label, t.Len())
	type lvl struct {
		nodes, entries, points int
	}
	levels := map[int]*lvl{}
	var walk func(n *core.MultiNode, d int)
	walk = func(n *core.MultiNode, d int) {
		l := levels[d]
		if l == nil {
			l = &lvl{}
			levels[d] = l
		}
		l.nodes++
		if n.IsLeaf() {
			l.points += len(n.Points())
			return
		}
		l.entries += len(n.Entries())
		for _, e := range n.Entries() {
			walk(e.Child, d+1)
		}
	}
	walk(t.Root(), 0)
	depths := make([]int, 0, len(levels))
	for d := range levels {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	for _, d := range depths {
		l := levels[d]
		fmt.Fprintf(w, "  depth %d: %d nodes, %d entries, %d observations\n", d, l.nodes, l.entries, l.points)
	}
	if t.Len() > 0 {
		// The level-0 model: the merge of the root's entries or points.
		cf, rect := stats.NewCF(t.Config().Dim), mbr.Empty(t.Config().Dim)
		for _, e := range t.Root().Entries() {
			cf.Merge(e.Total)
			rect.Extend(e.Rect)
		}
		for _, p := range t.Root().Points() {
			cf.Add(p.X)
			rect.ExtendPoint(p.X)
		}
		g, r := cf.Gaussian(), rect.String()
		fmt.Fprintf(w, "  root model: n=%.0f mean[0]=%.3f var[0]=%.4f mbr=%s...\n",
			cf.N, g.Mean[0], g.Var[0], r[:min(40, len(r))])
	}
	fmt.Fprintln(w)
}
