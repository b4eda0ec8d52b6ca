package bayestree

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md for paper-vs-measured records):
//
//	BenchmarkTable1Datasets    — Table 1 (data set inventory / generation)
//	BenchmarkFigure2Pendigits  — Figure 2 (anytime accuracy per loader)
//	BenchmarkFigure3Letter     — Figure 3
//	BenchmarkFigure4Gender     — Figure 4 top (glo vs bft)
//	BenchmarkFigure4Covertype  — Figure 4 bottom (glo vs bft)
//
// plus ablations for the design choices the paper discusses (descent
// strategies, priority measures, qbk, kernels, fanout, multi-class tree)
// and micro-benchmarks of the core operations.
//
// Accuracy results are attached as custom benchmark metrics
// (acc@N = anytime accuracy after N node reads, mean-acc = area under the
// anytime curve). Benchmarks use reduced data set scales so the full
// suite completes in minutes; `go run ./cmd/anytime figures` reproduces
// the figures at larger scale.

import (
	"fmt"
	"runtime"
	"testing"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/eval"
)

// benchScale keeps figure benchmarks tractable: curves keep their shape
// well below full size (see EXPERIMENTS.md).
const benchScale = 0.12

func benchDataset(b *testing.B, name string, scale float64) *dataset.Dataset {
	b.Helper()
	ds, err := dataset.ByName(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func reportCurve(b *testing.B, c *eval.Curve) {
	b.ReportMetric(c.At(10), "acc@10")
	b.ReportMetric(c.At(50), "acc@50")
	b.ReportMetric(c.Final(), "acc@100")
	b.ReportMetric(c.Mean(), "mean-acc")
}

// runFigure measures one curve per loader/strategy combination as a
// sub-benchmark.
func runFigure(b *testing.B, dsName string, scale float64, loaders []string, strategies []core.Strategy) {
	ds := benchDataset(b, dsName, scale)
	for _, strat := range strategies {
		for _, name := range loaders {
			label := name
			if len(strategies) > 1 {
				label = fmt.Sprintf("%s/%s", name, strat)
			}
			b.Run(label, func(b *testing.B) {
				loader, ok := bulkload.ByName(name)
				if !ok {
					b.Fatalf("unknown loader %s", name)
				}
				var last *eval.Curve
				for i := 0; i < b.N; i++ {
					c, err := eval.AnytimeCurve(ds, loader, eval.CurveOptions{
						Folds:    4,
						MaxNodes: 100,
						Seed:     42,
						Classifier: core.ClassifierOptions{
							Strategy: strat,
							Priority: core.PriorityProbabilistic,
						},
					})
					if err != nil {
						b.Fatal(err)
					}
					last = c
				}
				reportCurve(b, last)
			})
		}
	}
}

// BenchmarkTable1Datasets regenerates Table 1: the four data sets with
// their sizes, class and feature counts (generation throughput is the
// measured cost; the inventory itself is printed by `anytime figures
// -experiment table1`).
func BenchmarkTable1Datasets(b *testing.B) {
	for _, row := range dataset.Table1() {
		b.Run(row.Name, func(b *testing.B) {
			var ds *dataset.Dataset
			for i := 0; i < b.N; i++ {
				var err error
				ds, err = dataset.ByName(nameLower(row.Name), benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.Size), "paper-size")
			b.ReportMetric(float64(ds.Len()), "bench-size")
			b.ReportMetric(float64(len(ds.Classes())), "classes")
			b.ReportMetric(float64(ds.Dim()), "features")
		})
	}
}

func nameLower(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

// BenchmarkFigure2Pendigits regenerates Figure 2: anytime classification
// accuracy on pendigits for the four bulk-loading strategies under global
// best-first descent.
func BenchmarkFigure2Pendigits(b *testing.B) {
	runFigure(b, "pendigits", benchScale,
		[]string{"emtopdown", "hilbert", "goldberger", "iterative"},
		[]core.Strategy{core.DescentGlobal})
}

// BenchmarkFigure3Letter regenerates Figure 3 on the letter data set.
func BenchmarkFigure3Letter(b *testing.B) {
	runFigure(b, "letter", benchScale,
		[]string{"emtopdown", "hilbert", "goldberger", "iterative"},
		[]core.Strategy{core.DescentGlobal})
}

// BenchmarkFigure4Gender regenerates Figure 4 (top): gender with glo and
// bft descents for EMTopDown/Hilbert/Iterativ.
func BenchmarkFigure4Gender(b *testing.B) {
	runFigure(b, "gender", 0.01,
		[]string{"emtopdown", "hilbert", "iterative"},
		[]core.Strategy{core.DescentGlobal, core.DescentBFT})
}

// BenchmarkFigure4Covertype regenerates Figure 4 (bottom): covertype with
// glo and bft descents.
func BenchmarkFigure4Covertype(b *testing.B) {
	runFigure(b, "covertype", 0.004,
		[]string{"emtopdown", "hilbert", "iterative"},
		[]core.Strategy{core.DescentGlobal, core.DescentBFT})
}

// --- Ablations beyond the paper's figures -------------------------------

// BenchmarkAblationDescent sweeps all descent strategies over the
// per-class forest (the paper's Section 2.2 finding: glo best, then bft,
// then dft).
func BenchmarkAblationDescent(b *testing.B) {
	ds := benchDataset(b, "pendigits", benchScale)
	loader, ok := bulkload.ByName("emtopdown")
	if !ok {
		b.Fatal("unknown loader emtopdown")
	}
	for _, strat := range []core.Strategy{core.DescentGlobal, core.DescentBFT, core.DescentDFT} {
		b.Run(fmt.Sprintf("emtopdown/%s", strat), func(b *testing.B) {
			var last *eval.Curve
			for i := 0; i < b.N; i++ {
				c, err := eval.AnytimeCurve(ds, loader, eval.CurveOptions{
					Folds:    4,
					MaxNodes: 100,
					Seed:     42,
					Classifier: core.ClassifierOptions{
						Strategy: strat,
						Priority: core.PriorityProbabilistic,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = c
			}
			reportCurve(b, last)
		})
	}
}

// BenchmarkAblationPriority compares the probabilistic and geometric
// priority measures for global descent.
func BenchmarkAblationPriority(b *testing.B) {
	ds := benchDataset(b, "pendigits", benchScale)
	loader, _ := bulkload.ByName("emtopdown")
	for _, prio := range []core.Priority{core.PriorityProbabilistic, core.PriorityGeometric} {
		b.Run(prio.String(), func(b *testing.B) {
			var last *eval.Curve
			for i := 0; i < b.N; i++ {
				c, err := eval.AnytimeCurve(ds, loader, eval.CurveOptions{
					Folds: 4, MaxNodes: 100, Seed: 42,
					Classifier: core.ClassifierOptions{Priority: prio},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = c
			}
			reportCurve(b, last)
		})
	}
}

// BenchmarkAblationQBK sweeps the qbk parameter k (the paper settled on
// k = 2).
func BenchmarkAblationQBK(b *testing.B) {
	ds := benchDataset(b, "letter", 0.08)
	loader, _ := bulkload.ByName("emtopdown")
	for _, k := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var last *eval.Curve
			for i := 0; i < b.N; i++ {
				c, err := eval.AnytimeCurve(ds, loader, eval.CurveOptions{
					Folds: 4, MaxNodes: 100, Seed: 42,
					Classifier: core.ClassifierOptions{K: k},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = c
			}
			reportCurve(b, last)
		})
	}
}

// BenchmarkAblationFanout sweeps the page-size-derived fanout (the
// structural trade-off the paper inherits from its 2 KiB pages).
func BenchmarkAblationFanout(b *testing.B) {
	ds := benchDataset(b, "pendigits", benchScale)
	loader, _ := bulkload.ByName("emtopdown")
	for _, m := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			fan := m
			cfgFn := func(dim int) core.Config {
				cfg := core.DefaultConfig(dim)
				cfg.MaxFanout = fan
				cfg.MinFanout = fan * 2 / 5
				return cfg
			}
			var last *eval.Curve
			for i := 0; i < b.N; i++ {
				c, err := eval.AnytimeCurve(ds, loader, eval.CurveOptions{
					Folds: 4, MaxNodes: 100, Seed: 42, Config: cfgFn,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = c
			}
			reportCurve(b, last)
		})
	}
}

// BenchmarkAblationMultiTree compares the Section 4.1 single multi-class
// tree against the per-class forest (both built incrementally, so the
// comparison isolates the structural change).
func BenchmarkAblationMultiTree(b *testing.B) {
	ds := benchDataset(b, "pendigits", benchScale)
	b.Run("forest-iterative", func(b *testing.B) {
		loader, _ := bulkload.ByName("iterative")
		var last *eval.Curve
		for i := 0; i < b.N; i++ {
			c, err := eval.AnytimeCurve(ds, loader, eval.CurveOptions{Folds: 4, MaxNodes: 100, Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			last = c
		}
		reportCurve(b, last)
	})
	for _, mo := range []struct {
		name string
		opts core.MultiOptions
	}{
		{"multitree", core.MultiOptions{}},
		{"multitree-pooled", core.MultiOptions{PooledVariance: true}},
	} {
		b.Run(mo.name, func(b *testing.B) {
			var last *eval.Curve
			for i := 0; i < b.N; i++ {
				c, err := eval.MultiCurve(ds, mo.opts, eval.CurveOptions{Folds: 4, MaxNodes: 100, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				last = c
			}
			reportCurve(b, last)
		})
	}
}

// --- Micro-benchmarks of the core operations ----------------------------

// BenchmarkBulkLoad measures tree construction per strategy (the build
// cost the paper trades for anytime accuracy).
func BenchmarkBulkLoad(b *testing.B) {
	ds := benchDataset(b, "pendigits", benchScale)
	pts := ds.ByClass()[0]
	cfg := core.DefaultConfig(ds.Dim())
	for _, name := range bulkload.Names() {
		b.Run(name, func(b *testing.B) {
			loader, _ := bulkload.ByName(name)
			b.ReportMetric(float64(len(pts)), "points")
			for i := 0; i < b.N; i++ {
				if _, err := loader.Build(pts, cfg, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInsert measures incremental insertion throughput into a class
// tree: what Classifier.Learn does per object.
func BenchmarkInsert(b *testing.B) {
	ds := benchDataset(b, "pendigits", benchScale)
	cfg := core.DefaultConfig(ds.Dim())
	b.ResetTimer()
	var tree *core.MultiTree
	for i := 0; i < b.N; i++ {
		if i%ds.Len() == 0 {
			var err error
			tree, err = core.NewMultiTree(cfg, []int{0}, core.MultiOptions{})
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := tree.Insert(ds.X[i%ds.Len()], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassify measures anytime classification at several budgets.
func BenchmarkClassify(b *testing.B) {
	ds := benchDataset(b, "pendigits", benchScale)
	loader, _ := bulkload.ByName("emtopdown")
	clf, err := eval.TrainForest(ds, loader, core.DefaultConfig, core.ClassifierOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, budget := range []int{5, 25, 100} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clf.Classify(ds.X[i%ds.Len()], budget)
			}
		})
	}
}

// BenchmarkRefine measures the steady-state anytime refine loop of one
// class tree per descent strategy: one pooled one-class MultiQuery per
// query, 20 node reads through the descent mirror, the answer read. It
// must hold 0 allocs/op (see EXPERIMENTS.md for recorded numbers).
func BenchmarkRefine(b *testing.B) {
	ds := benchDataset(b, "pendigits", benchScale)
	loader, _ := bulkload.ByName("hilbert")
	tree, err := loader.Build(ds.ByClass()[0], core.DefaultConfig(ds.Dim()), 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []core.Strategy{core.DescentGlobal, core.DescentBFT, core.DescentDFT} {
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			opts := core.ClassifierOptions{Strategy: strat}
			for i := 0; i < b.N; i++ {
				q, err := tree.NewQuery(ds.X[i%ds.Len()], opts)
				if err != nil {
					b.Fatal(err)
				}
				for s := 0; s < 20; s++ {
					q.Step()
				}
				_ = q.Predict()
				q.Close()
			}
		})
	}
}

// BenchmarkExhaust reads one 10-class tree — the served model's shape,
// built by inserting the Pendigits sample — to exhaustion per query:
// every leaf's every point scored, the leaf-heaviest read there is.
func BenchmarkExhaust(b *testing.B) {
	ds := benchDataset(b, "pendigits", benchScale)
	tree, err := core.NewMultiTree(core.DefaultConfig(ds.Dim()), ds.Classes(), core.MultiOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i, x := range ds.X {
		if err := tree.Insert(x, ds.Y[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := tree.NewQuery(ds.X[i%ds.Len()], core.ClassifierOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for q.Step() {
		}
		_ = q.Predict()
		q.Close()
	}
}

// BenchmarkClassifyBatch measures the parallel batch-classification engine
// at increasing worker counts against the sequential loop, with custom
// speedup metrics. Worker count 1 exercises the pooled sequential path.
func BenchmarkClassifyBatch(b *testing.B) {
	ds := benchDataset(b, "pendigits", benchScale)
	loader, _ := bulkload.ByName("emtopdown")
	clf, err := eval.TrainForest(ds, loader, core.DefaultConfig, core.ClassifierOptions{})
	if err != nil {
		b.Fatal(err)
	}
	xs := ds.X
	const budget = 25
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clf.ClassifyBatch(xs, budget, workers)
			}
			b.ReportMetric(float64(len(xs))*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
		})
	}
}
