package serve

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/server"
)

// Flags holds the command-line flags serveclass and servecluster share:
// the listener, the engine's budgets and admission, decay, durability,
// replication and the multi-tenant registry. A command registers them
// with RegisterFlags next to its own (its bootstrap and its decay rate).
type Flags struct {
	Addr     string
	Shards   int
	Snapshot string
	Drain    time.Duration

	Budget, MaxBudget int
	NPS               float64

	MinWeight  float64
	DecayEvery int

	WALDir        string
	FsyncEvery    time.Duration
	Follow        string
	PromoteFile   string
	ReplicateAddr string

	TenantsDir       string
	MaxResident      int
	MaxResidentBytes int64
	TenantDim        int
	TenantShards     int
}

// FlagDefaults are the defaults the two commands differ in.
type FlagDefaults struct {
	Addr              string
	Budget, MaxBudget int
	TenantDim         int
}

// RegisterFlags declares the shared flags on fs.
func RegisterFlags(fs *flag.FlagSet, d FlagDefaults) *Flags {
	f := new(Flags)
	fs.StringVar(&f.Addr, "addr", d.Addr, "HTTP listen address")
	fs.IntVar(&f.Shards, "shards", 4, "number of model shards (ignored when warm-starting from -snapshot)")
	fs.StringVar(&f.Snapshot, "snapshot", "", "snapshot path: warm-start from it when present, write it back on drain")
	fs.DurationVar(&f.Drain, "drain", 10*time.Second, "graceful drain timeout on SIGTERM/SIGINT")
	fs.IntVar(&f.Budget, "budget", d.Budget, "default node budget when a request sets none")
	fs.IntVar(&f.MaxBudget, "max-budget", d.MaxBudget, "hard cap on any request's node budget")
	fs.Float64Var(&f.NPS, "nps", 0, "admission capacity in node reads/second across all requests, in a bucket of max(nps, max-budget) (0 = unlimited)")
	fs.Float64Var(&f.MinWeight, "min-weight", 0.05, "maintenance pruning floor: mass whose decayed weight falls below it is forgotten (with decay on)")
	fs.IntVar(&f.DecayEvery, "decay-every", 1000, "writes to a shard per decay epoch: every that many, the shard's epoch advances and its faded mass is swept (with decay on)")
	fs.StringVar(&f.WALDir, "wal-dir", "", "durability directory: per-shard write-ahead log + checkpoint snapshots; writes survive crashes via snapshot+replay recovery")
	fs.DurationVar(&f.FsyncEvery, "fsync-every", 100*time.Millisecond, "WAL group-commit fsync interval; 0 fsyncs every write (with -wal-dir)")
	fs.StringVar(&f.Follow, "follow", "", "run as a read-only replica of the primary at this base URL, e.g. http://host:8080 (requires -wal-dir; writes answer 307 to the primary)")
	fs.StringVar(&f.PromoteFile, "promote-file", "", "promote this replica to primary when the file appears (SIGHUP promotes too; with -follow)")
	fs.StringVar(&f.ReplicateAddr, "replicate-addr", "", "serve the replication stream (/replicate) on a second listener at this address (with -wal-dir)")
	fs.StringVar(&f.TenantsDir, "tenants-dir", "", "multi-tenant mode: serve a registry of named models rooted at this directory (/t/{tenant}/…); excludes -snapshot/-wal-dir/-follow/-replicate-addr")
	fs.IntVar(&f.MaxResident, "max-resident", 0, "multi-tenant: resident-model cap; LRU tenants beyond it are checkpointed and paged out (0 = registry default)")
	fs.Int64Var(&f.MaxResidentBytes, "max-resident-bytes", 0, "multi-tenant: additional resident-memory cap in estimated bytes (0 = none)")
	fs.IntVar(&f.TenantDim, "tenant-default-dim", d.TenantDim, "multi-tenant: dimensionality of tenants created on first write")
	fs.IntVar(&f.TenantShards, "tenant-default-shards", 1, "multi-tenant: shard count of tenants created on first write")
	return f
}

// Mode is the lifecycle a command line selects.
type Mode int

// The three lifecycles Main runs.
const (
	// Primary serves one model and takes writes.
	Primary Mode = iota
	// Follower serves a read-only replica of a primary (-follow).
	Follower
	// Registry serves many named models (-tenants-dir).
	Registry
)

// Mode checks the shared flags against each other and reports the
// lifecycle they select; a violated rule is a usage error.
func (f *Flags) Mode() (Mode, error) {
	if f.FsyncEvery < 0 {
		return 0, UsageErrorf("-fsync-every must be ≥ 0, got %v", f.FsyncEvery)
	}
	if f.TenantsDir != "" {
		if f.Snapshot != "" || f.WALDir != "" || f.Follow != "" || f.ReplicateAddr != "" {
			return 0, UsageErrorf("-tenants-dir is exclusive with -snapshot/-wal-dir/-follow/-replicate-addr")
		}
		return Registry, nil
	}
	if f.MaxResident != 0 || f.MaxResidentBytes != 0 {
		return 0, UsageErrorf("-max-resident/-max-resident-bytes require -tenants-dir")
	}
	if f.Follow != "" {
		if f.WALDir == "" {
			return 0, UsageErrorf("-follow requires -wal-dir (the replica's own durable state)")
		}
		return Follower, nil
	}
	if f.PromoteFile != "" {
		return 0, UsageErrorf("-promote-file only applies to a replica (-follow)")
	}
	if f.ReplicateAddr != "" && f.WALDir == "" {
		return 0, UsageErrorf("-replicate-addr requires -wal-dir (replication ships the WAL)")
	}
	return Primary, nil
}

// Config is the engine configuration the flags fix: budgets, admission
// and decay. lambda is the command's own decay-rate flag, named rate;
// any further bound on -min-weight is the command's to check.
func (f *Flags) Config(rate string, lambda float64) (server.Config, error) {
	cfg := server.Config{
		DefaultBudget:  f.Budget,
		MaxBudget:      f.MaxBudget,
		NodesPerSecond: f.NPS,
	}
	switch {
	case lambda < 0:
		return cfg, UsageErrorf("-%s must be ≥ 0, got %v", rate, lambda)
	case lambda > 0:
		if f.MinWeight < 0 {
			return cfg, UsageErrorf("-min-weight must be ≥ 0, got %v", f.MinWeight)
		}
		if f.DecayEvery <= 0 {
			return cfg, UsageErrorf("-decay-every must be > 0 with -%s set, got %d", rate, f.DecayEvery)
		}
		cfg.Decay = core.DecayOptions{Lambda: lambda, MinWeight: f.MinWeight}
		cfg.DecayEvery = f.DecayEvery
	}
	return cfg, nil
}

// ParseDescent resolves the descent flags shared by the commands that
// classify: -strategy glo|bft|dft and -priority prob|geom (long forms
// accepted). An unknown value is a usage error.
func ParseDescent(strategy, priority string) (core.Strategy, core.Priority, error) {
	strategies := map[string]core.Strategy{
		"glo": core.DescentGlobal, "global": core.DescentGlobal,
		"bft": core.DescentBFT, "breadth": core.DescentBFT,
		"dft": core.DescentDFT, "depth": core.DescentDFT,
	}
	priorities := map[string]core.Priority{
		"prob": core.PriorityProbabilistic, "probabilistic": core.PriorityProbabilistic,
		"geom": core.PriorityGeometric, "geometric": core.PriorityGeometric,
	}
	strat, ok := strategies[strategy]
	if !ok {
		return 0, 0, UsageErrorf("unknown strategy %q (want glo|bft|dft)", strategy)
	}
	prio, ok := priorities[priority]
	if !ok {
		return 0, 0, UsageErrorf("unknown priority %q (want prob|geom)", priority)
	}
	return strat, prio, nil
}

// usageError marks a command-line mistake: the command prints its usage
// and exits with status 2 rather than 1.
type usageError string

func (e usageError) Error() string { return string(e) }

// UsageErrorf builds a usage error. Usage mistakes travel up to main as
// errors — including from inside a bootstrap callback, which runs after
// the durability directory is locked — so no code path exits on its own.
func UsageErrorf(format string, args ...any) error {
	return usageError(fmt.Sprintf(format, args...))
}

// ExitStatus maps a command's final error to its exit status: 0 for
// nil, 2 ("bad invocation") for a usage error, 1 for a runtime failure.
func ExitStatus(err error) int {
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue):
		return 2
	}
	return 1
}

// Exit ends the command name on err: it prints the error — followed by
// the flag usage when it is a usage error — and exits with ExitStatus.
// A nil err returns.
func Exit(name string, err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	status := ExitStatus(err)
	if status == 2 {
		fmt.Fprintln(os.Stderr)
		flag.CommandLine.Usage()
	}
	os.Exit(status)
}
