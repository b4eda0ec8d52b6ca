package serve

import (
	"errors"
	"testing"

	"bayestree/internal/server"
)

// TestInitialModelSource: a primary with no durable state builds its
// model with the command's bootstrap, and -shards < 1 is a usage error
// before the bootstrap runs, in memory and under -wal-dir alike.
func TestInitialModelSource(t *testing.T) {
	bootstraps := 0
	ran := errors.New("bootstrap ran")
	w := Workload[*server.Server]{
		// Failing on purpose keeps runPrimary from going on to serve.
		Bootstrap: func() (*server.Server, error) {
			bootstraps++
			return nil, ran
		},
		Open: server.OpenDurableServer,
	}
	for _, f := range []*Flags{{Shards: 0}, {Shards: 0, WALDir: t.TempDir()}} {
		if err := runPrimary(f, w); ExitStatus(err) != 2 || bootstraps != 0 {
			t.Fatalf("-shards 0 -wal-dir %q: err %v, %d bootstraps; want a usage error before any bootstrap", f.WALDir, err, bootstraps)
		}
	}
	for i, f := range []*Flags{{Shards: 3}, {Shards: 3, WALDir: t.TempDir()}} {
		if err := runPrimary(f, w); !errors.Is(err, ran) || bootstraps != i+1 {
			t.Fatalf("-shards 3 -wal-dir %q: err %v, %d bootstraps; want the bootstrap's own error from bootstrap %d", f.WALDir, err, bootstraps, i+1)
		}
	}
}
