package main

import (
	"bytes"
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"bayestree/internal/serve"
)

// TestSubcommandSmoke runs every subcommand at a tiny scale: it must
// succeed and print its header line first.
func TestSubcommandSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "custom.csv")
	for _, c := range []struct {
		args, header string
	}{
		{"figures -dataset pendigits -scale 0.01 -loaders hilbert,multitree -nodes 3 -folds 2", "dataset pendigits: 110 observations, 10 classes, 16 features"},
		{"bulkload -dataset pendigits -scale 0.01 -loaders hilbert,str -dump", "dataset pendigits: 110 observations, 10 classes, 16 features"},
		{"datagen -dataset custom -size 50 -classes 2 -out " + csv, "wrote " + csv + ": 50 observations, 8 features, 2 classes"},
		{"streamclass -dataset pendigits -scale 0.03 -loader hilbert -window 8 -workers 2", "stream of 165 objects at rate 200/s, 5000 node-reads/s"},
		{"streamcluster -size 600 -sources 2", "stream of 600 objects, 2 drifting sources, λ=0.003"},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(c.args), &out); err != nil {
			t.Errorf("%s: %v", c.args, err)
			continue
		}
		if first, _, _ := strings.Cut(out.String(), "\n"); !strings.HasPrefix(first, c.header) {
			t.Errorf("%s: first line %q, want prefix %q", c.args, first, c.header)
		}
	}
}

// TestUsageErrors: every bad invocation of every subcommand is a usage
// error (exit status 2), found before any work is done; -h is not an
// error.
func TestUsageErrors(t *testing.T) {
	for _, args := range []string{
		"",
		"nope",
		"figures -dataset nope",
		"figures -dataset pendigits -scale 0.01 -loaders emtopdown,nope",
		"figures -dataset pendigits -scale 0.01 -strategy nope",
		"figures stray",
		"figures -bogus",
		"bulkload -dataset nope",
		"bulkload -scale 0.01 -loaders nope",
		"bulkload stray",
		"bulkload -dump=maybe",
		"datagen -dataset nope",
		"datagen stray",
		"datagen -size x",
		"streamclass -dataset nope",
		"streamclass -scale 0.01 -loader nope",
		"streamclass -scale 0.01 -loader hilbert,str",
		"streamclass stray",
		"streamclass -bogus",
		"streamcluster stray",
		"streamcluster -bogus",
		"streamcluster -size 0",
	} {
		if err := run(strings.Fields(args), new(bytes.Buffer)); serve.ExitStatus(err) != 2 {
			t.Errorf("%q: err %v; want a usage error", args, err)
		}
	}
	for _, c := range commands {
		if err := run([]string{c.name, "-h"}, new(bytes.Buffer)); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: err %v; want flag.ErrHelp", c.name, err)
		}
	}
}
