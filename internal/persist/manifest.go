package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the durability manifest: the small record that ties a
// snapshot generation to the WAL segments that continue it. Recovery
// reads it to learn which snapshot to load and, per shard, the first
// WAL segment to replay on top; a checkpoint writes a new one only
// after its snapshot is durably in place, so at every instant the
// manifest on disk names a complete, consistent (snapshot, WAL-start)
// pair — segments below the start are garbage to collect, never state.

// ManifestName is the manifest's filename inside a durability
// directory.
const ManifestName = "MANIFEST"

// Manifest ties one snapshot generation to the WAL segments that must
// be replayed on top of it. It is written atomically (WriteFileAtomic)
// and stored as JSON so operators can inspect durability state with
// cat.
type Manifest struct {
	// Generation counts checkpoints, starting at 1; the zero value means
	// no checkpoint has completed yet and recovery starts from an empty
	// (or bootstrapped) model.
	Generation uint64 `json:"generation"`
	// Epoch is the replication fencing token: it starts at 0 and is
	// bumped only when a replica is promoted to primary, so a higher
	// epoch always names a newer line of succession. A resurrected
	// stale primary that learns of a higher epoch must refuse writes
	// (it fences itself). Manifests written before replication existed
	// decode as epoch 0.
	Epoch uint64 `json:"epoch,omitempty"`
	// Snapshot is the snapshot filename relative to the durability
	// directory, "" when Generation is 0.
	Snapshot string `json:"snapshot"`
	// Shards is the shard count the WAL layout was written with; a
	// recovery into a different shard count would mis-route replayed
	// records and must refuse.
	Shards int `json:"shards"`
	// ShardStart is, per shard, the first WAL segment to replay —
	// segments below it were already folded into the snapshot.
	ShardStart []uint64 `json:"shard_start"`
	// ShardWrites is, per shard, the lifetime write count at the cut,
	// which replay continues, so decay boundaries fall where they fell
	// before the restart. Absent (an older manifest), it means 0 each.
	ShardWrites []uint64 `json:"shard_writes,omitempty"`
}

// validate rejects internally inconsistent manifests before any model
// state is built from them.
func (m Manifest) validate() error {
	if m.Generation > 0 && m.Snapshot == "" {
		return fmt.Errorf("persist: manifest generation %d without snapshot", m.Generation)
	}
	if m.Snapshot != "" && (filepath.Base(m.Snapshot) != m.Snapshot || m.Snapshot == "." || m.Snapshot == "..") {
		return fmt.Errorf("persist: manifest snapshot %q is not a bare filename", m.Snapshot)
	}
	if m.Shards <= 0 {
		return fmt.Errorf("persist: manifest shard count %d", m.Shards)
	}
	if len(m.ShardStart) != m.Shards {
		return fmt.Errorf("persist: manifest has %d shard starts for %d shards", len(m.ShardStart), m.Shards)
	}
	if m.ShardWrites != nil && len(m.ShardWrites) != m.Shards {
		return fmt.Errorf("persist: manifest has %d shard write counts for %d shards", len(m.ShardWrites), m.Shards)
	}
	return nil
}

// SaveManifest atomically writes the manifest into dir.
func SaveManifest(dir string, m Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	return WriteFileAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// LoadManifest reads the manifest from dir. ok is false when none
// exists yet — a fresh durability directory, not an error.
func LoadManifest(dir string) (m Manifest, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, fmt.Errorf("persist: manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("persist: manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return Manifest{}, false, err
	}
	return m, true, nil
}
