package server

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"bayestree/internal/persist"
)

// TestDrainCheckpointIsSnapshot: a drain — Checkpoint, then
// CloseDurability — leaves in the durability directory exactly the bytes
// WriteSnapshot encodes, for both workloads with decay on. The directory
// a drained server leaves is therefore a complete copy of its model: the
// checkpoint file the MANIFEST names is the whole-model snapshot, and
// nothing a separate snapshot write could add is missing from it.
func TestDrainCheckpointIsSnapshot(t *testing.T) {
	const n = 600 // about 200 writes a shard: three decay boundaries each
	t.Run("classify", func(t *testing.T) {
		drainIsSnapshot(t, classDecayWorkload(n), n, (*Server).WriteSnapshot)
	})
	t.Run("cluster", func(t *testing.T) {
		drainIsSnapshot(t, clusterDecayWorkload(n), n, (*ClusterServer).WriteSnapshot)
	})
}

func drainIsSnapshot[S Served](t *testing.T, w decayWorkload[S], n int, snapshot func(S, io.Writer) error) {
	dir := t.TempDir()
	s := w.open(t, dir)
	for i := 0; i < n; i++ {
		if err := w.write(s, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := snapshot(s, &want); err != nil {
		t.Fatal(err)
	}
	m, ok, err := persist.LoadManifest(dir)
	if err != nil || !ok || m.Snapshot == "" {
		t.Fatalf("manifest after drain: %+v, ok %v, err %v", m, ok, err)
	}
	got, err := os.ReadFile(filepath.Join(dir, m.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s: checkpoint %s holds %d bytes, WriteSnapshot %d; want the same bytes", w.name, m.Snapshot, len(got), want.Len())
	}
	if s.Len() == 0 {
		t.Fatalf("%s: drained an empty model", w.name)
	}
}
