// Command anytime is the offline half of the repository: it regenerates
// the paper's evaluation artefacts, compares the bulk loaders, writes the
// synthetic data sets and simulates the paper's streams.
//
// Usage:
//
//	anytime figures -experiment all              # Table 1 and Figures 2–4
//	anytime figures -dataset letter -loaders emtopdown,multitree
//	anytime bulkload -dataset pendigits -dump    # tree shapes per loader
//	anytime datagen -dataset gender -scale 0.1   # synthetic data to CSV
//	anytime streamclass -dataset covertype -window 64
//	anytime streamcluster -sources 6 -burst 3
//
// Each subcommand takes its own flags; `anytime <subcommand> -h` lists
// them. Bad invocations (an unknown subcommand, data set, loader,
// strategy or priority, a malformed flag or a stray argument) exit with
// status 2; runtime failures exit with status 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bayestree/internal/bulkload"
	"bayestree/internal/dataset"
	"bayestree/internal/serve"
)

// command is one subcommand: its name, a line for the list, and its run.
type command struct {
	name, summary string
	run           func(args []string, stdout io.Writer) error
}

var commands = []command{
	{"figures", "regenerate Table 1 and Figures 2–4, or run a custom anytime-quality comparison", runFigures},
	{"bulkload", "compare the bulk loaders' tree shapes, build times and invariants", runBulkload},
	{"datagen", "write a synthetic data set to CSV", runDatagen},
	{"streamclass", "classify a simulated Poisson stream with gap-sized budgets", runStreamclass},
	{"streamcluster", "cluster a drifting stream with the Section 4.2 ClusTree", runStreamcluster},
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		err = nil
	}
	serve.Exit("anytime", err)
}

// run dispatches to the subcommand args name. With none, or an unknown
// one, it is a usage error and the usage is the subcommand list.
func run(args []string, stdout io.Writer) error {
	flag.CommandLine.Usage = usage
	if len(args) == 0 {
		return serve.UsageErrorf("missing subcommand")
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:], stdout)
		}
	}
	if args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		usage()
		return flag.ErrHelp
	}
	return serve.UsageErrorf("unknown subcommand %q", args[0])
}

func usage() {
	fmt.Fprintf(os.Stderr, "Usage: anytime <subcommand> [flags]\n\nSubcommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", c.name, c.summary)
	}
	fmt.Fprintf(os.Stderr, "\nRun 'anytime <subcommand> -h' for its flags.\n")
}

// newFlagSet returns subcommand name's flag set with its usage text. A
// usage error the subcommand returns prints this usage (serve.Exit prints
// flag.CommandLine's).
func newFlagSet(name, about string) *flag.FlagSet {
	fs := flag.NewFlagSet("anytime "+name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: anytime %s [flags]\n\n%s\nFlags:\n", name, about)
		fs.PrintDefaults()
	}
	flag.CommandLine.Usage = fs.Usage
	return fs
}

// parse parses args into fs. -h prints the usage and returns
// flag.ErrHelp; a malformed flag or a stray argument is a usage error.
func parse(fs *flag.FlagSet, args []string) error {
	out := fs.Output()
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	fs.SetOutput(out)
	switch {
	case errors.Is(err, flag.ErrHelp):
		fs.Usage()
		return err
	case err != nil:
		return serve.UsageErrorf("%v", err)
	case fs.NArg() > 0:
		return serve.UsageErrorf("unexpected arguments %v", fs.Args())
	}
	return nil
}

// loadDataset generates the named data set; an unknown name is a usage
// error.
func loadDataset(name string, scale float64) (*dataset.Dataset, error) {
	ds, err := dataset.ByName(name, scale)
	if err != nil {
		return nil, serve.UsageErrorf("%v", err)
	}
	return ds, nil
}

// parseLoaders resolves a comma-separated loader list. Where multitree is
// allowed, the name "multitree" (the Section 4.1 single multi-class tree)
// resolves to a nil Loader. An unknown name is a usage error.
func parseLoaders(list string, multitree bool) ([]bulkload.Loader, error) {
	var out []bulkload.Loader
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		l, ok := bulkload.ByName(name)
		switch {
		case !ok && multitree && name == "multitree":
		case !ok && multitree:
			return nil, serve.UsageErrorf("unknown loader %q (have %v and multitree)", name, bulkload.Names())
		case !ok:
			return nil, serve.UsageErrorf("unknown loader %q (have %v)", name, bulkload.Names())
		}
		out = append(out, l)
	}
	return out, nil
}
