package server

import (
	"math"
	"testing"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/stats"
)

// TestServerBudgetZeroIsLevelZero is invariant (i)'s budget-0 half on a
// sharded server (ARCHITECTURE.md): a classification granted no node
// reads answers with each shard's level-0 model — per class, the prior
// times the density of one Gaussian over the shard's observations of it
// — merged by stats.MergeLogScores, label for label, every score within
// 1e-12.
func TestServerBudgetZeroIsLevelZero(t *testing.T) {
	ds, err := dataset.Pendigits(0.06)
	if err != nil {
		t.Fatal(err)
	}
	labels := ds.Classes()
	s, err := NewEmpty(4, core.DefaultConfig(ds.Dim()), labels, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.X {
		if err := s.Insert(ds.X[i], ds.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	class := make(map[int]int, len(labels))
	for c, y := range labels {
		class[y] = c
	}
	// Each shard's observations, by class index.
	shardPoints := make([][][][]float64, len(s.shards))
	weights := make([]float64, len(s.shards))
	for i, sh := range s.shards {
		byClass := make([][][]float64, len(labels))
		var walk func(n *core.MultiNode)
		walk = func(n *core.MultiNode) {
			for _, p := range n.Points() {
				byClass[class[p.Label]] = append(byClass[class[p.Label]], p.X)
			}
			for _, e := range n.Entries() {
				walk(e.Child)
			}
		}
		walk(sh.tree.Root())
		shardPoints[i] = byClass
		weights[i] = float64(sh.tree.Len())
	}
	for n, x := range ds.X[:100] {
		parts := make([][]float64, len(s.shards))
		for i, byClass := range shardPoints {
			parts[i] = make([]float64, len(labels))
			for c, pts := range byClass {
				parts[i][c] = math.Inf(-1)
				if len(pts) > 0 {
					cf := stats.CFOfAll(pts, len(x))
					parts[i][c] = math.Log(cf.N/weights[i]) + cf.Gaussian().LogPDF(x)
				}
			}
		}
		want := make([]float64, len(labels))
		best := stats.MergeLogScores(want, parts, weights, float64(ds.Len()))
		res, err := s.classifyResolved(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.NodesRead != 0 || res.Label != labels[best] {
			t.Fatalf("x%d: label %d after %d reads, level-0 %d", n, res.Label, res.NodesRead, labels[best])
		}
		for c := range want {
			if math.Abs(res.Scores[c]-want[c]) > 1e-12 {
				t.Fatalf("x%d: class %d score %v, level-0 %v", n, labels[c], res.Scores[c], want[c])
			}
		}
	}
}
