package server

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/replica"
)

// A ClusTree read computes faded weights and stores nothing, so no read
// of a clustering server — /stats, /microclusters, /macroclusters — can
// move a bit of a later write.
// These tests hold the served model to that: read it, and it is still
// byte for byte the model of the same writes never read.

// readCluster serves every read route of a clustering server once
// through h; each must answer 200.
func readCluster(t *testing.T, h http.Handler) {
	t.Helper()
	for _, path := range []string{"/stats", "/microclusters", "/macroclusters?eps=0.2&minw=0.5"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
	}
}

// killRestartStream draws TestDurableClusterKillRestartDigitIdentical's
// objects and budgets.
func killRestartStream(n int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(11))
	xs := make([][]float64, n)
	budgets := make([]int, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		budgets[i] = 1 + i%7
	}
	return xs, budgets
}

// TestDurableClusterReadsInvisible is the kill/restart run with every
// read route served every fifth object on both sides of the crash, and
// a checkpoint cut between reads before it, so recovery starts from a
// model that was read. The recovered server must still hold the bytes
// of an uninterrupted run that was never read.
func TestDurableClusterReadsInvisible(t *testing.T) {
	const n, kill, cut = 400, 237, 150
	xs, budgets := killRestartStream(n)
	dir := t.TempDir()

	a := newDurableCluster(t, dir, 3)
	ha := a.Handler()
	for i := 0; i < kill; i++ {
		if _, err := a.Insert(xs[i], budgets[i]); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			readCluster(t, ha)
		}
		if i == cut {
			if err := a.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	crash(t, a.dur)

	a2 := newDurableCluster(t, dir, 3)
	if got := a2.Stats().WALReplayed; got != kill-cut-1 {
		t.Fatalf("replayed %d records, want %d past the checkpoint", got, kill-cut-1)
	}
	ha2 := a2.Handler()
	for i := kill; i < n; i++ {
		readCluster(t, ha2)
		if _, err := a2.Insert(xs[i], budgets[i]); err != nil {
			t.Fatal(err)
		}
	}

	b, err := NewCluster(clustree.DefaultConfig(2), 3, Config{}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := b.Insert(xs[i], budgets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if sa, sb := snapshotBytes(t, a2), snapshotBytes(t, b); !bytes.Equal(sa, sb) {
		t.Fatalf("a read server recovered to other bytes than an unread uninterrupted run: %d vs %d bytes", len(sa), len(sb))
	}
	if sa, sb := a2.Stats(), b.Stats(); sa.Weight != sb.Weight || sa.MicroClusters != sb.MicroClusters {
		t.Fatalf("stats diverge: weight %v vs %v, micro-clusters %d vs %d", sa.Weight, sb.Weight, sa.MicroClusters, sb.MicroClusters)
	}
	a2.CloseDurability()
}

// TestFollowerClusterReadsInvisible reads a cluster follower the way
// the proxy's prober does — GET /stats, again and again, beside the
// primary's — and once more at waypoints of the stream where it has
// applied everything shipped so far. At the last applied LSN its
// snapshot bytes must be its primary's.
func TestFollowerClusterReadsInvisible(t *testing.T) {
	const n = 300
	xs, budgets := killRestartStream(n)

	prim := newDurableCluster(t, t.TempDir(), 3)
	defer prim.CloseDurability()
	pts := httptest.NewServer(prim.Handler())
	defer killServer(pts)
	foll, err := NewFollowerCluster(DurabilityOptions{Dir: t.TempDir()}, Config{}, pts.URL)
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(foll.Handler())
	defer killServer(fts)
	tail := replica.New(foll, tailOpts(pts.URL, replica.WorkloadCluster, foll.Epoch))
	tail.Start()
	defer tail.Stop()

	probe := func(url string) int {
		resp, err := http.Get(url + "/stats")
		if err != nil {
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	done := make(chan struct{})
	var prober sync.WaitGroup
	prober.Add(1)
	go func() {
		defer prober.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
				probe(pts.URL)
				probe(fts.URL)
			}
		}
	}()
	for i := 0; i < n; i++ {
		if _, err := prim.Insert(xs[i], budgets[i]); err != nil {
			t.Fatal(err)
		}
		if i%25 == 24 {
			waitFor(t, 10*time.Second, "follower to apply the stream so far", func() bool {
				return appliedLSN(foll) == uint64(i+1)
			})
			if code := probe(fts.URL); code != http.StatusOK {
				t.Fatalf("follower /stats = %d, want 200", code)
			}
		}
	}
	waitFor(t, 10*time.Second, "follower to apply the whole stream", func() bool {
		return appliedLSN(foll) == n
	})
	close(done)
	prober.Wait()
	if sf, sp := snapshotBytes(t, foll.Current()), snapshotBytes(t, prim); !bytes.Equal(sf, sp) {
		t.Fatalf("read follower's model differs from its primary's at LSN %d: %d vs %d bytes", n, len(sf), len(sp))
	}
	tail.Stop()
	if err := foll.Persist(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClusterReaders runs several readers of /microclusters,
// /stats and /macroclusters at once, beside NDJSON ingest, decay sweeps
// that prune and background checkpoints: the reads share each shard's
// read lock, so -race checks that they write nothing the others read.
// Once the writers stop, a burst of concurrent reads must leave the
// snapshot bytes as they were.
func TestConcurrentClusterReaders(t *testing.T) {
	setCheckpointFloor(t, 4<<10)
	cfg := Config{Decay: core.DecayOptions{Lambda: 0.01, MinWeight: 0.3}}
	copts := ClusterOptions{}
	s, err := OpenDurableCluster(DurabilityOptions{Dir: t.TempDir()}, cfg, func() (*ClusterServer, error) {
		return NewCluster(clustree.DefaultConfig(2), 4, cfg, copts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	defer s.CloseDurability()
	h, cut := s.Handler(), s.Stats().Checkpoints
	reads := []string{"/microclusters?minw=0.5", "/stats", "/macroclusters?eps=0.2&minw=0.5"}
	read := func(path string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
	}

	const readers, windows = 6, 12
	done := make(chan struct{})
	var writers, background sync.WaitGroup
	for c := 0; c < 2; c++ {
		bodies, _ := windowBodies(rand.New(rand.NewSource(int64(c))), windows)
		writers.Add(1)
		go func() {
			defer writers.Done()
			for _, body := range bodies {
				for i, l := range clusterLines(t, h, body) {
					if l.Error != "" {
						t.Errorf("line %d: %s", i, l.Error)
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		background.Add(1)
		go func() {
			defer background.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				read(reads[i%len(reads)])
			}
		}()
	}
	background.Add(1)
	go func() {
		defer background.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
				s.AdvanceDecay()
			}
		}
	}()
	writers.Wait()
	close(done)
	background.Wait()
	st := s.Stats()
	if want := int64(2 * windows * streamWindow); st.Clock != want || st.Inserts != want {
		t.Fatalf("clock %d, inserts %d after %d lines", st.Clock, st.Inserts, want)
	}
	if st.Checkpoints == cut {
		t.Fatal("no background checkpoint ran beside the reads")
	}

	before := snapshotBytes(t, s)
	var burst sync.WaitGroup
	for r := 0; r < readers; r++ {
		burst.Add(1)
		go func() {
			defer burst.Done()
			for _, path := range reads {
				read(path)
			}
		}()
	}
	burst.Wait()
	if !bytes.Equal(snapshotBytes(t, s), before) {
		t.Fatal("concurrent reads changed the model")
	}
}
