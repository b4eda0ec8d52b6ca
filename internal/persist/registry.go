package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the multi-tenant registry's durable index: one small
// JSON record at the registry root that enumerates every tenant the
// registry has ever created, with the checkpoint generation each was
// last paged out at. The per-tenant durability state (MANIFEST,
// snapshot, WAL segments, LOCK) lives in a subdirectory per tenant;
// the registry manifest only names them, so a restarted registry knows
// the full tenant population without loading a single model — cold
// tenants stay on disk until their first request.
//
// It also owns the crash-hygiene sweep for that layout: a crash
// mid-eviction can strand an atomic-write temp file inside a tenant
// subdirectory that may not be loaded again for days, so the
// startup sweep must walk the whole tree, not just the root.

// RegistryManifestName is the registry manifest's filename inside a
// registry root directory.
const RegistryManifestName = "REGISTRY"

// RegistryTenant is one tenant's entry in the registry manifest.
type RegistryTenant struct {
	// Name is the tenant's registry name, also its subdirectory name
	// under the registry's tenants directory.
	Name string `json:"name"`
	// Generation is the tenant's checkpoint generation when the manifest
	// was last written for it (0 before its first checkpoint). It is
	// informational — the tenant's own MANIFEST is authoritative at
	// load — but lets operators see paging state with cat.
	Generation uint64 `json:"generation"`
}

// RegistryManifest enumerates the tenants of a multi-tenant registry
// root. Written atomically on tenant creation and eviction, so a
// restarted registry always knows its full tenant population.
type RegistryManifest struct {
	// Workload names the served workload (replica.Workload*); a
	// registry refuses to open a root written by the other workload.
	Workload string `json:"workload"`
	// Tenants lists every tenant ever created, sorted by name.
	Tenants []RegistryTenant `json:"tenants"`
}

// validate rejects internally inconsistent registry manifests.
func (m RegistryManifest) validate() error {
	if m.Workload == "" {
		return fmt.Errorf("persist: registry manifest without workload")
	}
	seen := make(map[string]bool, len(m.Tenants))
	for _, t := range m.Tenants {
		if t.Name == "" {
			return fmt.Errorf("persist: registry manifest with unnamed tenant")
		}
		if filepath.Base(t.Name) != t.Name {
			return fmt.Errorf("persist: registry tenant %q is not a bare directory name", t.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("persist: registry manifest lists tenant %q twice", t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// SaveRegistryManifest atomically writes the registry manifest into
// dir (the registry root).
func SaveRegistryManifest(dir string, m RegistryManifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	return WriteFileAtomic(filepath.Join(dir, RegistryManifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// LoadRegistryManifest reads the registry manifest from dir. ok is
// false when none exists yet — a fresh registry root, not an error.
func LoadRegistryManifest(dir string) (m RegistryManifest, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, RegistryManifestName))
	if os.IsNotExist(err) {
		return RegistryManifest{}, false, nil
	}
	if err != nil {
		return RegistryManifest{}, false, fmt.Errorf("persist: registry manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return RegistryManifest{}, false, fmt.Errorf("persist: registry manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return RegistryManifest{}, false, err
	}
	return m, true, nil
}

// RemoveStaleTempsTree sweeps stranded atomic-write temp files from
// dir and every directory below it. RemoveStaleTemps cleans one
// directory — enough for a single-tenant durability dir, where startup
// always visits the root — but a registry root holds one subdirectory
// per tenant and a crash mid-eviction strands the temp inside the
// victim tenant's directory, which a cold tenant might not open again
// for days. Walking the tree at registry open bounds that exposure to
// one restart. A missing dir is a no-op; unreadable subdirectories are
// reported, not skipped silently.
func RemoveStaleTempsTree(dir string) error {
	var first error
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			if first == nil {
				first = fmt.Errorf("persist: sweep temps %s: %w", path, err)
			}
			return nil
		}
		if !d.IsDir() {
			return nil
		}
		if err := RemoveStaleTemps(path); err != nil && first == nil {
			first = err
		}
		return nil
	})
	if err != nil && first == nil {
		first = fmt.Errorf("persist: sweep temps %s: %w", dir, err)
	}
	return first
}
