package serve

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

// bothDefaults are the flag defaults of the two serving commands.
var bothDefaults = map[string]FlagDefaults{
	"serveclass":   {Addr: ":8080", Budget: 32, MaxBudget: 1024, TenantDim: 3},
	"servecluster": {Addr: ":8081", Budget: 8, MaxBudget: 64, TenantDim: 2},
}

// TestFlagRules runs every shared validation rule, and one valid
// command line per lifecycle, through both commands' shared flag sets:
// a violated rule is a usage error (exit status 2), a valid line
// selects the expected mode.
func TestFlagRules(t *testing.T) {
	cases := []struct {
		args  string
		mode  Mode
		usage string // substring of the usage error, "" when valid
	}{
		{args: "", mode: Primary},
		{args: "-wal-dir d -replicate-addr :9000 -fsync-every 0", mode: Primary},
		{args: "-wal-dir d -follow http://p:1 -promote-file f", mode: Follower},
		{args: "-tenants-dir t -max-resident 8 -max-resident-bytes 1024", mode: Registry},

		{args: "-follow http://p:1", usage: "-follow requires -wal-dir"},
		{args: "-promote-file f", usage: "-promote-file only applies"},
		{args: "-wal-dir d -promote-file f", usage: "-promote-file only applies"},
		{args: "-replicate-addr :9000", usage: "-replicate-addr requires -wal-dir"},
		{args: "-max-resident 8", usage: "require -tenants-dir"},
		{args: "-max-resident-bytes 1024", usage: "require -tenants-dir"},
		{args: "-tenants-dir t -wal-dir d", usage: "-tenants-dir is exclusive"},
		{args: "-tenants-dir t -follow http://p:1", usage: "-tenants-dir is exclusive"},
		{args: "-tenants-dir t -replicate-addr :9000", usage: "-tenants-dir is exclusive"},
		{args: "-wal-dir d -fsync-every -1s", usage: "-fsync-every must be"},
		{args: "-wal-dir d -follow http://p:1 -fsync-every -1s", usage: "-fsync-every must be"},
		{args: "-tenants-dir t -fsync-every -1s", usage: "-fsync-every must be"},
	}
	for name, defaults := range bothDefaults {
		for _, c := range cases {
			fs := flag.NewFlagSet(name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := RegisterFlags(fs, defaults)
			if err := fs.Parse(strings.Fields(c.args)); err != nil {
				t.Fatalf("%s %s: %v", name, c.args, err)
			}
			mode, err := f.Mode()
			if c.usage == "" {
				if err != nil || mode != c.mode {
					t.Errorf("%s %s: mode %v, err %v; want mode %v", name, c.args, mode, err, c.mode)
				}
				continue
			}
			if ExitStatus(err) != 2 || !strings.Contains(err.Error(), c.usage) {
				t.Errorf("%s %s: err %v (status %d); want a usage error naming %q", name, c.args, err, ExitStatus(err), c.usage)
			}
		}
	}
}

// TestConfigDecayRules: the decay checks on the shared -min-weight and
// -decay-every flags are usage errors naming the command's own rate
// flag, and a zero rate leaves decay off whatever the other two say.
func TestConfigDecayRules(t *testing.T) {
	parse := func(args string) *Flags {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f := RegisterFlags(fs, bothDefaults["serveclass"])
		if err := fs.Parse(strings.Fields(args)); err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, c := range []struct {
		args   string
		lambda float64
		usage  string
	}{
		{"", -1, "-lambda must be ≥ 0"},
		{"-min-weight -1", 0.1, "-min-weight must be ≥ 0"},
		{"-decay-every 0", 0.1, "-decay-every must be > 0 with -lambda set"},
	} {
		if _, err := parse(c.args).Config("lambda", c.lambda); ExitStatus(err) != 2 || !strings.Contains(err.Error(), c.usage) {
			t.Errorf("%q λ=%v: err %v; want a usage error naming %q", c.args, c.lambda, err, c.usage)
		}
	}
	cfg, err := parse("-min-weight -1 -decay-every 0 -budget 5").Config("lambda", 0)
	if err != nil || cfg.Decay.Enabled() || cfg.DefaultBudget != 5 {
		t.Errorf("λ=0: cfg %+v, err %v; want decay off, budget 5", cfg, err)
	}
}

// TestExitStatus: nil is 0, a usage error — however wrapped — is 2,
// anything else 1.
func TestExitStatus(t *testing.T) {
	usage := UsageErrorf("bad %s", "flag")
	for _, c := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{usage, 2},
		{errors.Join(errors.New("ctx"), usage), 2},
		{errors.New("listen: address in use"), 1},
	} {
		if got := ExitStatus(c.err); got != c.want {
			t.Errorf("ExitStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
