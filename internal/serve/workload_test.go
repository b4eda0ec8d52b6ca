package serve

import (
	"os"
	"path/filepath"
	"testing"

	"bayestree/internal/core"
	"bayestree/internal/persist"
	"bayestree/internal/server"
)

// TestInitialModelSource: an existing -snapshot wins over the bootstrap,
// a snapshot path with no file yet falls through to it, and -shards < 1
// is a usage error before the bootstrap runs.
func TestInitialModelSource(t *testing.T) {
	bootstraps := 0
	w := Workload[*server.Server]{
		Decode: server.FromSnapshot,
		Bootstrap: func() (*server.Server, error) {
			bootstraps++
			return server.NewEmpty(3, core.DefaultConfig(2), []int{0, 1}, core.MultiOptions{}, server.Config{})
		},
	}
	path := filepath.Join(t.TempDir(), "model.btsn")

	s, err := initial(&Flags{Snapshot: path, Shards: 3}, w)
	if err != nil || bootstraps != 1 || s.NumShards() != 3 {
		t.Fatalf("missing snapshot: err %v, %d bootstraps; want one bootstrap of 3 shards", err, bootstraps)
	}
	if err := s.Insert([]float64{0.5, 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	if err := persist.WriteFileAtomic(path, s.WriteSnapshot); err != nil {
		t.Fatal(err)
	}

	warm, err := initial(&Flags{Snapshot: path, Shards: 0}, w)
	if err != nil || bootstraps != 1 || warm.Len() != 1 {
		t.Fatalf("existing snapshot: err %v, %d bootstraps; want a warm start holding the one insert", err, bootstraps)
	}

	if _, err := initial(&Flags{Shards: 0}, w); ExitStatus(err) != 2 || bootstraps != 1 {
		t.Fatalf("-shards 0: err %v, %d bootstraps; want a usage error before any bootstrap", err, bootstraps)
	}

	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := initial(&Flags{Snapshot: path, Shards: 3}, w); err == nil || ExitStatus(err) != 1 {
		t.Fatalf("corrupt snapshot: err %v; want a runtime error, not a silent bootstrap", err)
	}
}
