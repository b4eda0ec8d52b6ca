package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"bayestree/internal/serve"
)

// parse runs a command line through the command's real flag set.
func parse(t *testing.T, args string) *options {
	t.Helper()
	fs := flag.NewFlagSet("servecluster", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := register(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("%s: %v", args, err)
	}
	return o
}

// TestCommandLines: valid command lines select their lifecycle, and
// every usage mistake — in the command's own flags, in the shared
// rules, or found by the bootstrap — comes back as a usage error (exit
// status 2) instead of exiting from where it was found.
func TestCommandLines(t *testing.T) {
	for _, c := range []struct {
		args string
		mode serve.Mode
	}{
		{"-dim 2 -shards 2", serve.Primary},
		{"-dim 2 -wal-dir d -replicate-addr :9000 -lambda 0", serve.Primary},
		{"-wal-dir d -follow http://p:8081 -promote-file f", serve.Follower},
		{"-tenants-dir t -max-resident 8 -min-weight 5", serve.Registry},
	} {
		o := parse(t, c.args)
		if _, err := o.workload(nil); err != nil {
			t.Errorf("%s: %v", c.args, err)
		}
		if mode, err := o.Mode(); err != nil || mode != c.mode {
			t.Errorf("%s: mode %v, err %v; want %v", c.args, mode, err, c.mode)
		}
	}
	for _, args := range []string{
		"-lambda -1",
		"-min-weight -1",
		"-decay-every 0",
		"-tenants-dir t -snapshot s",
		"-promote-file f",
		"-max-resident 8",
		"-tenants-dir t -fsync-every -1s",
	} {
		o := parse(t, args)
		_, err := o.workload(nil)
		if err == nil {
			_, err = o.Mode()
		}
		if serve.ExitStatus(err) != 2 {
			t.Errorf("%s: err %v; want a usage error", args, err)
		}
	}
	if _, err := parse(t, "").workload([]string{"stray"}); serve.ExitStatus(err) != 2 {
		t.Errorf("stray argument: err %v; want a usage error", err)
	}
	// The bootstrap's own mistake travels the same way: no -dim.
	w, err := parse(t, "").workload(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Bootstrap(); serve.ExitStatus(err) != 2 {
		t.Errorf("bootstrap without -dim: err %v; want a usage error", err)
	}
}
