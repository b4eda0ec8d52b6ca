package registry

import (
	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/replica"
	"bayestree/internal/server"
)

// This file binds the registry to the two engine workloads. A backend's
// Open is the cold-load path: open the tenant's durable state
// (bootstrapping an empty model from its TenantConfig on first
// creation), replay recovery, and hand the registry a serving tenant.
// Recovery after a clean eviction is snapshot-decode-only — the
// eviction checkpoint truncated the WAL — which is what keeps cold
// loads a bounded-latency disk fetch.

// ClassifyBackend serves multi-class Bayes tree classification
// tenants (*server.Server). Tenants are created on their first POST
// /insert.
func ClassifyBackend() Backend[*server.Server] {
	return backend(replica.WorkloadClassify, "/insert", func(dopts server.DurabilityOptions, cfg server.Config, tc TenantConfig) (*server.Server, error) {
		return server.OpenDurableServer(dopts, cfg, func() (*server.Server, error) {
			return server.NewEmpty(tc.Shards, core.DefaultConfig(tc.Dim), tc.Labels, core.MultiOptions{}, cfg)
		})
	})
}

// ClusterBackend serves anytime stream-clustering tenants
// (*server.ClusterServer). Tenants are created on their first POST
// /cluster.
func ClusterBackend() Backend[*server.ClusterServer] {
	return backend(replica.WorkloadCluster, "/cluster", func(dopts server.DurabilityOptions, cfg server.Config, tc TenantConfig) (*server.ClusterServer, error) {
		return server.OpenDurableCluster(dopts, cfg, func() (*server.ClusterServer, error) {
			return server.NewCluster(clustree.DefaultConfig(tc.Dim), tc.Shards, cfg, server.ClusterOptions{})
		})
	})
}

// backend is the one cold-load body: open the workload's durable state
// (its bootstrap builds an empty model of the tenant's shape), then
// recover. createPath is the tenant-relative POST path whose first hit
// creates the tenant.
func backend[T server.Served](workload, createPath string, open func(server.DurabilityOptions, server.Config, TenantConfig) (T, error)) Backend[T] {
	return Backend[T]{
		Workload:    workload,
		CreatePaths: map[string]bool{createPath: true},
		Open: func(dir string, tc TenantConfig, carvedNPS float64, dopts server.DurabilityOptions) (T, error) {
			var zero T
			s, err := open(dopts, tc.ServerConfig(carvedNPS), tc)
			if err != nil {
				return zero, err
			}
			if err := s.Recover(); err != nil {
				s.CloseDurability()
				return zero, err
			}
			return s, nil
		},
	}
}
