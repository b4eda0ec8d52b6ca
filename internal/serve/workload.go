package serve

import (
	"fmt"
	"log"
	"net/http"
	"time"

	"bayestree/internal/registry"
	"bayestree/internal/server"
)

// Workload is what a serving command supplies about the model it
// serves; Main runs every lifecycle — primary, replica, registry — from
// it and the shared Flags, so the commands keep only their own flags,
// their bootstrap and their usage text.
type Workload[S server.Served] struct {
	// Name is the command name, the prefix of its log lines.
	Name string
	// Config is the engine configuration the command's flags resolved.
	Config server.Config
	// Bootstrap builds the model from the command's own flags (a data
	// set, empty shards); it is not called when durable state already
	// exists. Its usage mistakes come back as UsageErrorf errors.
	Bootstrap func() (S, error)
	// Open opens the durable state (server.OpenDurableServer or
	// OpenDurableCluster), Follow a replica of it (NewFollowerServer or
	// NewFollowerCluster).
	Open   func(server.DurabilityOptions, server.Config, func() (S, error)) (S, error)
	Follow func(dopts server.DurabilityOptions, cfg server.Config, primaryURL string) (*server.Follower[S], error)
	// Backend opens tenants in registry mode; TenantLabels is the label
	// set of tenants created on first write (classification only).
	Backend      registry.Backend[S]
	TenantLabels []int
	// Stats reads the engine-level stats for the startup and recovery
	// log lines.
	Stats func(S) server.Stats
}

// Main validates the shared flags and runs the lifecycle they select,
// returning when the process should exit.
func Main[S server.Served](f *Flags, w Workload[S]) error {
	mode, err := f.Mode()
	if err != nil {
		return err
	}
	switch mode {
	case Registry:
		return runRegistry(f, w)
	case Follower:
		return runFollower(f, w)
	}
	return runPrimary(f, w)
}

// durability maps the durability flags to the engine's options.
func (f *Flags) durability() server.DurabilityOptions {
	return server.DurabilityOptions{Dir: f.WALDir, FsyncEvery: f.FsyncEvery}
}

// runPrimary runs the single-model lifecycle: bootstrap or recover the
// model, serve it, and on drain checkpoint it into -wal-dir. Without
// -wal-dir the model lives in memory only.
func runPrimary[S server.Served](f *Flags, w Workload[S]) error {
	bootstrap := func() (S, error) {
		if f.Shards < 1 {
			var zero S
			return zero, UsageErrorf("-shards must be ≥ 1, got %d", f.Shards)
		}
		return w.Bootstrap()
	}
	var s S
	var err error
	var recoverFn, persistFn func() error
	if f.WALDir != "" {
		s, err = w.Open(f.durability(), w.Config, bootstrap)
		recoverFn = func() error {
			if err := s.Recover(); err != nil {
				return err
			}
			st := w.Stats(s)
			ckpt := fmt.Sprintf("tail of %d bytes kept", st.WALBytesSinceCheckpoint)
			if st.CheckpointMs > 0 {
				ckpt = "checkpointed"
			}
			log.Printf("recovery complete: %d WAL records replayed (%d torn dropped), %s, generation %d, %d observations; %.1f ms (snapshot decode %.1f, wal replay %.1f, mirror build %.1f, checkpoint %.1f)",
				st.WALReplayed, st.WALDroppedRecords, ckpt, st.SnapshotGeneration, st.Observations,
				st.RecoverMs, st.SnapshotDecodeMs, st.WALReplayMs, st.MirrorBuildMs, st.CheckpointMs)
			return nil
		}
		persistFn = func() error {
			if err := s.Checkpoint(); err != nil {
				return err
			}
			if err := s.CloseDurability(); err != nil {
				return err
			}
			log.Printf("final checkpoint written to %s (%d observations)", f.WALDir, s.Len())
			return nil
		}
	} else {
		s, err = bootstrap()
	}
	if err != nil {
		return err
	}
	log.Printf("serving %d observations over %d shards on %s (default budget %d, admission %s, decay %s, wal %s)",
		s.Len(), s.NumShards(), f.Addr, f.Budget, admissionDesc(f.NPS), decayDesc(w.Stats(s), w.Config), walDesc(f.WALDir, f.FsyncEvery))

	return Run(App{
		Name:             w.Name,
		Addr:             f.Addr,
		Handler:          s.Handler(),
		DrainTimeout:     f.Drain,
		Recover:          recoverFn,
		SetDraining:      s.SetDraining,
		Persist:          persistFn,
		ReplicateAddr:    f.ReplicateAddr,
		ReplicateHandler: s.ReplicateHandler(),
	})
}

// runFollower runs the replica lifecycle: a Follower over the durable
// directory, tailing the primary's stream, and the serve loop with the
// promote triggers armed.
func runFollower[S server.Served](f *Flags, w Workload[S]) error {
	fo, err := w.Follow(f.durability(), w.Config, f.Follow)
	if err != nil {
		return err
	}
	log.Printf("following %s (wal %s); promote with SIGHUP%s", f.Follow, f.WALDir, promoteHint(f.PromoteFile))
	// The replication listener gets only /replicate of the follower's
	// full handler — live once the follower is promoted (or for chained
	// replication).
	replicate := http.NewServeMux()
	replicate.Handle("/replicate", fo.Handler())
	return Run(App{
		Name:             w.Name,
		Addr:             f.Addr,
		Handler:          fo.Handler(),
		DrainTimeout:     f.Drain,
		SetDraining:      fo.SetDraining,
		Persist:          fo.Persist,
		Promote:          fo.Promote,
		PromoteFile:      f.PromoteFile,
		ReplicateAddr:    f.ReplicateAddr,
		ReplicateHandler: replicate,
	})
}

// promoteHint describes the promote-file trigger for the startup log.
func promoteHint(path string) string {
	if path == "" {
		return ""
	}
	return fmt.Sprintf(" or by creating %s", path)
}

// runRegistry runs the multi-tenant lifecycle: a model registry over
// the tenants directory, served until a drain checkpoints every loaded
// tenant back to disk.
func runRegistry[S server.Served](f *Flags, w Workload[S]) error {
	defaults := registry.TenantConfig{
		Dim:           f.TenantDim,
		Labels:        w.TenantLabels,
		Shards:        f.TenantShards,
		DefaultBudget: f.Budget,
		MaxBudget:     f.MaxBudget,
	}
	if w.Config.Decay.Enabled() {
		defaults.DecayLambda = w.Config.Decay.Lambda
		defaults.DecayMinWeight = w.Config.Decay.MinWeight
		defaults.DecayEvery = w.Config.DecayEvery
	}
	r, err := registry.Open(registry.Options{
		Dir:              f.TenantsDir,
		MaxResident:      f.MaxResident,
		MaxResidentBytes: f.MaxResidentBytes,
		NodesPerSecond:   f.NPS,
		FsyncEvery:       f.FsyncEvery,
		Defaults:         defaults,
	}, w.Backend)
	if err != nil {
		return err
	}
	log.Printf("serving %d %s tenants (0 resident) from %s on %s (max resident %d, admission %s)",
		r.Tenants(), w.Backend.Workload, f.TenantsDir, f.Addr, r.Stats().MaxResident, admissionDesc(f.NPS))
	return Run(App{
		Name:         w.Name,
		Addr:         f.Addr,
		Handler:      r.Handler(),
		DrainTimeout: f.Drain,
		SetDraining:  r.SetDraining,
		Persist: func() error {
			// Drain = checkpoint-all: every loaded tenant is paged out
			// through the eviction path. The population needs no save: it
			// is the tenants directory.
			if err := r.Close(); err != nil {
				return err
			}
			log.Printf("drained: %d tenants checkpointed to %s", r.Tenants(), f.TenantsDir)
			return nil
		},
	})
}

// admissionDesc describes the admission capacity for the startup log.
func admissionDesc(nps float64) string {
	if nps <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.0f node reads/s", nps)
}

// walDesc describes the durability mode for the startup log.
func walDesc(dir string, fsyncEvery time.Duration) string {
	if dir == "" {
		return "off"
	}
	if fsyncEvery == 0 {
		return fmt.Sprintf("%s (fsync per write)", dir)
	}
	return fmt.Sprintf("%s (group commit %v)", dir, fsyncEvery)
}

// decayDesc describes the decay state the server actually runs with —
// which may come from a recovered checkpoint rather than the flags. A
// decayed checkpoint recovered without a decay rate keeps fading scores
// but crosses no epoch boundary, which deserves a loud hint, not "off".
func decayDesc(st server.Stats, cfg server.Config) string {
	if !st.DecayEnabled {
		return "off"
	}
	if !cfg.Decay.Enabled() {
		return fmt.Sprintf("recovered state at epoch %d — no epoch boundaries; set the decay rate and -decay-every to resume forgetting", st.DecayEpoch)
	}
	return fmt.Sprintf("λ=%g floor=%g, one epoch per %d writes to a shard", cfg.Decay.Lambda, cfg.Decay.MinWeight, cfg.DecayEvery)
}
