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
	fs := flag.NewFlagSet("serveclass", flag.ContinueOnError)
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
		{"-empty-dim 3 -shards 2", serve.Primary},
		{"-dataset pendigits -wal-dir d -replicate-addr :9000", serve.Primary},
		{"-wal-dir d -follow http://p:8080 -promote-file f", serve.Follower},
		{"-tenants-dir t -tenant-default-labels 0,1 -decay-lambda 0.1", serve.Registry},
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
		"-strategy zigzag",
		"-priority loud",
		"-decay-lambda -1",
		"-decay-lambda 0.1 -min-weight 2",
		"-decay-lambda 0.1 -decay-every 0",
		"-tenants-dir t -dataset pendigits",
		"-tenant-default-labels 0",
		"-follow http://p:8080",
		"-wal-dir d -fsync-every -1s",
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
	// A model outlives the process only through -wal-dir; -snapshot is
	// no flag, so naming it is a parse error.
	fs := flag.NewFlagSet("serveclass", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	register(fs)
	if err := fs.Parse([]string{"-snapshot", "x"}); err == nil || !strings.Contains(err.Error(), "-snapshot") {
		t.Errorf("-snapshot x: err %v; want a parse error naming the undefined flag", err)
	}
	// The bootstrap's own mistakes travel the same way.
	for _, args := range []string{"", "-dataset nosuch", "-empty-dim 3 -empty-labels 7"} {
		w, err := parse(t, args).workload(nil)
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		if _, err := w.Bootstrap(); serve.ExitStatus(err) != 2 {
			t.Errorf("bootstrap %q: err %v; want a usage error", args, err)
		}
	}
}
