package main

import (
	"fmt"
	"io"

	"bayestree/internal/dataset"
)

// runDatagen writes the synthetic Table 1 stand-in data sets (or a custom
// synthetic spec) to CSV, with the label in the last column — ready for
// external tools or for reloading via the CSV loader.
func runDatagen(args []string, stdout io.Writer) error {
	fs := newFlagSet("datagen",
		"Write a named synthetic data set (or -dataset custom with -size/-classes/\n"+
			"-features/-seed) to CSV, the label in the last column.\n")
	var (
		name     = fs.String("dataset", "pendigits", "named data set (pendigits|letter|gender|covertype) or 'custom'")
		scale    = fs.Float64("scale", 1.0, "scale in (0,1] for named data sets")
		out      = fs.String("out", "", "output file (default <name>.csv)")
		size     = fs.Int("size", 10000, "custom: observations")
		classes  = fs.Int("classes", 5, "custom: classes")
		features = fs.Int("features", 8, "custom: features")
		seed     = fs.Int64("seed", 1, "custom: generator seed")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	var ds *dataset.Dataset
	var err error
	if *name == "custom" {
		ds, err = dataset.Synthetic(dataset.SyntheticSpec{
			Name: "custom", Size: *size, Classes: *classes, Features: *features, Seed: *seed,
		})
	} else {
		ds, err = loadDataset(*name, *scale)
	}
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = ds.Name + ".csv"
	}
	if err := ds.SaveCSV(path); err != nil {
		return err
	}
	counts := ds.ClassCounts()
	fmt.Fprintf(stdout, "wrote %s: %d observations, %d features, %d classes %v\n",
		path, ds.Len(), ds.Dim(), len(counts), counts)
	return nil
}
