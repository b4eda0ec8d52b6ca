// Command anytime regenerates the paper's evaluation artefacts: Table 1
// and the anytime-accuracy figures 2, 3 and 4 (see EXPERIMENTS.md for the
// paper-vs-measured record).
//
// Usage:
//
//	anytime -experiment all                  # everything, default scales
//	anytime -experiment fig3 -scale 0.2      # letter at 20% size
//	anytime -experiment fig2 -scale 1        # paper-size pendigits
//	anytime -dataset letter -loaders emtopdown,iterative -nodes 60
//
// The -dataset form runs a custom comparison outside the canned figures,
// with -loaders, -nodes, -folds, -strategy, -priority and -k selecting
// the comparison, and prints the log-loss, Brier score and calibration
// error of the posteriors beside the accuracy; the loader "multitree" is
// the Section 4.1 single multi-class tree. See -h for every flag. Bad
// invocations (unknown experiment, data set, loader, strategy or
// priority) exit with status 2; runtime failures exit with status 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/eval"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "paper artefact to regenerate: table1|fig2|fig3|fig4a|fig4b|all")
		scale      = flag.Float64("scale", 0, "data set scale in (0,1]; 0 = experiment default, 1 = paper size")
		seed       = flag.Int64("seed", 42, "cross-validation seed")
		dsName     = flag.String("dataset", "", "custom run: data set (pendigits|letter|gender|covertype)")
		loaders    = flag.String("loaders", "emtopdown,hilbert,goldberger,iterative", "custom run: comma-separated loaders (multitree: the single multi-class tree)")
		nodes      = flag.Int("nodes", 100, "custom run: node budget (x-axis extent)")
		folds      = flag.Int("folds", 4, "custom run: cross-validation folds")
		strategy   = flag.String("strategy", "glo", "custom run: descent strategy glo|bft|dft")
		priority   = flag.String("priority", "prob", "custom run: descent priority prob|geom")
		k          = flag.Int("k", 0, "custom run: qbk parameter (0 = paper default)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"Usage: anytime [flags]\n\n"+
				"Regenerate the paper's evaluation artefacts (-experiment table1|fig2|fig3|\n"+
				"fig4a|fig4b|all) or run a custom anytime-accuracy comparison (-dataset with\n"+
				"-loaders/-nodes/-folds/-strategy/-priority/-k).\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		usagef("unexpected arguments %v", flag.Args())
	}

	if *experiment == "" && *dsName == "" {
		*experiment = "all"
	}
	if *experiment != "" {
		runExperiments(*experiment, *scale, *seed)
		return
	}
	runCustom(*dsName, *scale, *seed, *loaders, *nodes, *folds, *strategy, *priority, *k)
}

func runExperiments(which string, scale float64, seed int64) {
	var exps []eval.Experiment
	if which == "all" {
		exps = eval.Experiments()
	} else {
		e, ok := eval.ExperimentByID(which)
		if !ok {
			usagef("unknown experiment %q (want table1|fig2|fig3|fig4a|fig4b|all)", which)
		}
		exps = []eval.Experiment{e}
	}
	for _, e := range exps {
		if _, err := e.Run(os.Stdout, scale, seed); err != nil {
			fatalf("experiment %s: %v", e.ID, err)
		}
		fmt.Println()
	}
}

func runCustom(dsName string, scale float64, seed int64, loaderList string, nodes, folds int, strategy, priority string, k int) {
	if scale <= 0 {
		scale = 0.2
	}
	ds, err := dataset.ByName(dsName, scale)
	if err != nil {
		usagef("%v", err)
	}
	strat, ok := parseStrategy(strategy)
	if !ok {
		usagef("unknown strategy %q (want glo|bft|dft)", strategy)
	}
	prio, ok := parsePriority(priority)
	if !ok {
		usagef("unknown priority %q (want prob|geom)", priority)
	}
	fmt.Printf("dataset %s: %d observations, %d classes, %d features\n",
		ds.Name, ds.Len(), len(ds.Classes()), ds.Dim())
	opts := eval.CurveOptions{
		Folds:      folds,
		MaxNodes:   nodes,
		Seed:       seed,
		Classifier: core.ClassifierOptions{Strategy: strat, Priority: prio, K: k},
	}
	var curves []*eval.Curve
	for _, name := range strings.Split(loaderList, ",") {
		name = strings.TrimSpace(name)
		loader, ok := bulkload.ByName(name)
		if !ok && name != "multitree" {
			usagef("unknown loader %q (have %v and multitree)", name, bulkload.Names())
		}
		var c *eval.Curve
		if ok {
			c, err = eval.AnytimeCurve(ds, loader, opts)
		} else {
			c, err = eval.MultiCurve(ds, core.MultiOptions{}, opts)
		}
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		curves = append(curves, c)
		fmt.Printf("  %-12s final=%.4f mean=%.4f build=%s\n", c.Name, c.Final(), c.Mean(), c.BuildTime.Round(1e6))
	}
	if err := eval.PlotCurves(os.Stdout, fmt.Sprintf("%s (%s/%s)", ds.Name, strategy, priority), curves); err != nil {
		fatalf("%v", err)
	}
	eval.CurveTable(os.Stdout, curves, []int{0, 5, 10, 20, 50, nodes})
	eval.QualityTable(os.Stdout, curves, []int{0, 5, 10, 20, 50, nodes})
}

func parseStrategy(s string) (core.Strategy, bool) {
	switch s {
	case "glo", "global":
		return core.DescentGlobal, true
	case "bft", "breadth":
		return core.DescentBFT, true
	case "dft", "depth":
		return core.DescentDFT, true
	}
	return 0, false
}

func parsePriority(s string) (core.Priority, bool) {
	switch s {
	case "prob", "probabilistic":
		return core.PriorityProbabilistic, true
	case "geom", "geometric":
		return core.PriorityGeometric, true
	}
	return 0, false
}

// fatalf reports a runtime failure and exits with status 1.
func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "anytime: "+format+"\n", args...)
	os.Exit(1)
}

// usagef reports a bad invocation, prints usage and exits with status 2.
func usagef(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "anytime: "+format+"\n\n", args...)
	flag.Usage()
	os.Exit(2)
}
