package main

import (
	"fmt"
	"io"

	"bayestree/internal/core"
	"bayestree/internal/eval"
	"bayestree/internal/serve"
)

// runFigures regenerates the paper's evaluation artefacts — Table 1 and
// the anytime-accuracy figures 2, 3 and 4 (see EXPERIMENTS.md for the
// paper-vs-measured record) — or, with -dataset, runs a custom comparison
// that prints the log-loss, Brier score and calibration error of the
// posteriors beside the accuracy.
func runFigures(args []string, stdout io.Writer) error {
	fs := newFlagSet("figures",
		"Regenerate the paper's evaluation artefacts (-experiment table1|fig2|fig3|\n"+
			"fig4a|fig4b|all) or run a custom anytime-accuracy comparison (-dataset with\n"+
			"-loaders/-nodes/-folds/-strategy/-priority/-k).\n")
	var (
		experiment = fs.String("experiment", "", "paper artefact to regenerate: table1|fig2|fig3|fig4a|fig4b|all")
		scale      = fs.Float64("scale", 0, "data set scale in (0,1]; 0 = experiment default, 1 = paper size")
		seed       = fs.Int64("seed", 42, "cross-validation seed")
		dsName     = fs.String("dataset", "", "custom run: data set (pendigits|letter|gender|covertype)")
		loaders    = fs.String("loaders", "emtopdown,hilbert,goldberger,iterative", "custom run: comma-separated loaders (multitree: the single multi-class tree)")
		nodes      = fs.Int("nodes", 100, "custom run: node budget (x-axis extent)")
		folds      = fs.Int("folds", 4, "custom run: cross-validation folds")
		strategy   = fs.String("strategy", "glo", "custom run: descent strategy glo|bft|dft")
		priority   = fs.String("priority", "prob", "custom run: descent priority prob|geom")
		k          = fs.Int("k", 0, "custom run: qbk parameter (0 = paper default)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *experiment == "" && *dsName == "" {
		*experiment = "all"
	}
	if *experiment != "" {
		return runExperiments(stdout, *experiment, *scale, *seed)
	}

	if *scale <= 0 {
		*scale = 0.2
	}
	ds, err := loadDataset(*dsName, *scale)
	if err != nil {
		return err
	}
	strat, prio, err := serve.ParseDescent(*strategy, *priority)
	if err != nil {
		return err
	}
	ls, err := parseLoaders(*loaders, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dataset %s: %d observations, %d classes, %d features\n",
		ds.Name, ds.Len(), len(ds.Classes()), ds.Dim())
	opts := eval.CurveOptions{
		Folds:      *folds,
		MaxNodes:   *nodes,
		Seed:       *seed,
		Classifier: core.ClassifierOptions{Strategy: strat, Priority: prio, K: *k},
	}
	var curves []*eval.Curve
	for _, l := range ls {
		var c *eval.Curve
		if l != nil {
			c, err = eval.AnytimeCurve(ds, l, opts)
		} else {
			c, err = eval.MultiCurve(ds, core.MultiOptions{}, opts)
		}
		if err != nil {
			return err
		}
		curves = append(curves, c)
		fmt.Fprintf(stdout, "  %-12s final=%.4f mean=%.4f build=%s\n", c.Name, c.Final(), c.Mean(), c.BuildTime.Round(1e6))
	}
	if err := eval.PlotCurves(stdout, fmt.Sprintf("%s (%s/%s)", ds.Name, *strategy, *priority), curves); err != nil {
		return err
	}
	budgets := []int{0, 5, 10, 20, 50, *nodes}
	eval.CurveTable(stdout, curves, budgets)
	eval.QualityTable(stdout, curves, budgets)
	return nil
}

func runExperiments(stdout io.Writer, which string, scale float64, seed int64) error {
	exps := eval.Experiments()
	if which != "all" {
		e, ok := eval.ExperimentByID(which)
		if !ok {
			return serve.UsageErrorf("unknown experiment %q (want table1|fig2|fig3|fig4a|fig4b|all)", which)
		}
		exps = []eval.Experiment{e}
	}
	for _, e := range exps {
		if _, err := e.Run(stdout, scale, seed); err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
