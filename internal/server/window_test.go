package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/wal"
	"bayestree/internal/wire"
)

// clusterStats reads /stats through h.
func clusterStats(t *testing.T, h http.Handler) ClusterStats {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var st ClusterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	return st
}

// clusterLines posts body to h's /cluster as NDJSON and decodes the
// answer's lines.
func clusterLines(t testing.TB, h http.Handler, body []byte) []wire.ClusterLine {
	rec := serveRecorded(h, "/cluster", "application/x-ndjson", body)
	if rec.Code != http.StatusOK {
		t.Errorf("status %d: %s", rec.Code, rec.Body)
		return nil
	}
	var out []wire.ClusterLine
	for _, raw := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
		var l wire.ClusterLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Errorf("answer line %q: %v", raw, err)
		}
		out = append(out, l)
	}
	return out
}

// TestClusterWindowContract pins what one /cluster NDJSON window
// promises, however its lines are ingested. The window mixes valid lines
// with an undecodable one, a wrong-dim one, a coordinate no float64
// holds and one beyond ±1e150. Every line is answered in its own
// position; exactly the valid lines are ingested, each on RouteShard's
// shard with the budget, grant and degradation a sequential Insert of
// the same objects gets; and the engine counters in /stats move by the
// sums over the answers. Admission runs off, and on a bucket of half a
// token that never refills, whose every grant is 0 in any order.
func TestClusterWindowContract(t *testing.T) {
	bad := map[int]string{
		3:  `{"x":[0.5,`,
		10: `{"x":[0.1,0.2,0.3],"budget":4}`,
		17: `{"x":[1e400,0.5]}`,
		25: `{"x":[0.5,2e150],"budget":2}`,
	}
	for _, bucket := range []bool{false, true} {
		t.Run(fmt.Sprintf("bucket=%v", bucket), func(t *testing.T) {
			cs := newTestCluster(t, 4, 0.001, Config{})
			oracle := newTestCluster(t, 4, 0.001, Config{})
			if bucket {
				cs.admit, oracle.admit = newTokenBucket(0, 0.5), newTokenBucket(0, 0.5)
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 300; i++ {
				x := clusterPoint(rng, i%2)
				for _, s := range []*ClusterServer{cs, oracle} {
					if _, err := s.Insert(x, 1+i%6); err != nil {
						t.Fatal(err)
					}
				}
			}
			var body []byte
			want := make([]*ClusterResult, streamWindow)
			xs := make([][]float64, streamWindow)
			for i := range want {
				if line, ok := bad[i]; ok {
					body = append(append(body, line...), '\n')
					continue
				}
				xs[i] = clusterPoint(rng, i%2)
				budget := []int{0, -1, 1, 3, 8}[i%5]
				res, err := oracle.Insert(xs[i], budget)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = &res
				body = append(wire.ClusterRequest{X: xs[i], Budget: budget}.AppendJSON(body), '\n')
			}

			h := cs.Handler()
			before := clusterStats(t, h)
			got := clusterLines(t, h, body)
			after := clusterStats(t, h)
			if len(got) != streamWindow {
				t.Fatalf("%d answer lines for %d request lines", len(got), streamWindow)
			}
			var valid, requested, granted, read, degraded int64
			for i, l := range got {
				if want[i] == nil {
					if l.Error == "" {
						t.Errorf("line %d (%s) answered %+v, want an error", i, bad[i], l)
					}
					continue
				}
				if l.Error != "" {
					t.Fatalf("line %d: %s", i, l.Error)
				}
				if l.Shard != RouteShard(xs[i], 4) {
					t.Errorf("line %d on shard %d, RouteShard says %d", i, l.Shard, RouteShard(xs[i], 4))
				}
				if l.Requested != want[i].Requested || l.Granted != want[i].Granted || l.Degraded != want[i].Degraded {
					t.Errorf("line %d: requested/granted/degraded %d/%d/%v, a sequential Insert %d/%d/%v",
						i, l.Requested, l.Granted, l.Degraded, want[i].Requested, want[i].Granted, want[i].Degraded)
				}
				valid++
				requested += int64(l.Requested)
				granted += int64(l.Granted)
				read += int64(l.NodesRead)
				if l.Degraded {
					degraded++
				}
			}
			if valid != streamWindow-int64(len(bad)) {
				t.Fatalf("%d valid answers, want %d", valid, streamWindow-len(bad))
			}
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"clock", after.Clock - before.Clock, valid},
				{"observations", int64(after.Observations - before.Observations), valid},
				{"inserts", after.Inserts - before.Inserts, valid},
				{"requests", after.Requests - before.Requests, valid},
				{"nodes_requested", after.NodesRequested - before.NodesRequested, requested},
				{"nodes_granted", after.NodesGranted - before.NodesGranted, granted},
				{"nodes_read", after.NodesRead - before.NodesRead, read},
				{"degraded_requests", after.Degraded - before.Degraded, degraded},
			} {
				if c.got != c.want {
					t.Errorf("/stats %s moved by %d, the answers sum to %d", c.name, c.got, c.want)
				}
			}
		})
	}
}

// windowBodies draws windows of objects in [0,1)² at budgets 1–5, one
// NDJSON body a window, and the objects line by line.
func windowBodies(rng *rand.Rand, windows int) ([][]byte, [][]float64) {
	bodies, xs := make([][]byte, windows), make([][]float64, 0, windows*streamWindow)
	for w := range bodies {
		for i := 0; i < streamWindow; i++ {
			x := []float64{rng.Float64(), rng.Float64()}
			xs = append(xs, x)
			bodies[w] = append(wire.ClusterRequest{X: x, Budget: 1 + i%5}.AppendJSON(bodies[w]), '\n')
		}
	}
	return bodies, xs
}

// TestClusterWindowShardLineOrder: the lines of one window that go to
// one shard apply in line order. On a durable server each shard's log
// holds them in the order they stood in their bodies, with strictly
// increasing timestamps — the log order is the apply order.
func TestClusterWindowShardLineOrder(t *testing.T) {
	dir := t.TempDir()
	s := newDurableCluster(t, dir, 4)
	bodies, xs := windowBodies(rand.New(rand.NewSource(5)), 8)
	line := make(map[[2]float64]int, len(xs))
	for i, x := range xs {
		line[[2]float64{x[0], x[1]}] = i
	}
	h := s.Handler()
	for _, body := range bodies {
		for i, l := range clusterLines(t, h, body) {
			if l.Error != "" {
				t.Fatalf("line %d: %s", i, l.Error)
			}
		}
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	logged := 0
	for shard := 0; shard < 4; shard++ {
		r, err := wal.OpenReader(filepath.Join(dir, fmt.Sprintf("shard-%03d", shard)), 0)
		if err != nil {
			t.Fatal(err)
		}
		lastLine, lastTS := -1, int64(0)
		for {
			p, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			head, x, err := decodeRecord(p, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			i, ok := line[[2]float64{x[0], x[1]}]
			if !ok || RouteShard(x, 4) != shard {
				t.Fatalf("shard %d logged %v, no line of its own", shard, x)
			}
			if i <= lastLine || head[0] <= lastTS {
				t.Fatalf("shard %d logged line %d at time %d after line %d at time %d", shard, i, head[0], lastLine, lastTS)
			}
			lastLine, lastTS = i, head[0]
			logged++
		}
		r.Close()
	}
	if logged != len(xs) {
		t.Fatalf("%d records logged for %d lines", logged, len(xs))
	}
}

// TestClusterWindowSnapshotAtBoundary: a shard's hold ends at the line
// that crosses a recording boundary, so the pyramidal snapshot it
// triggers is taken before the window's next line ticks the clock and
// is labelled with the boundary itself — on one shard, where nothing
// else ticks, exactly.
func TestClusterWindowSnapshotAtBoundary(t *testing.T) {
	const every = 10 // no divisor of a window's 64 lines
	cs, err := NewCluster(clustree.DefaultConfig(2), 1, Config{}, ClusterOptions{SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	bodies, _ := windowBodies(rand.New(rand.NewSource(9)), 4)
	for _, body := range bodies {
		clusterLines(t, cs.Handler(), body)
	}
	snaps := cs.store.All()
	if len(snaps) == 0 {
		t.Fatal("no snapshot recorded")
	}
	for _, sn := range snaps {
		if int64(sn.Time)%every != 0 {
			t.Errorf("snapshot labelled %v, not a multiple of %d", sn.Time, every)
		}
	}
}

// TestClusterWindowConcurrent: windows ingested side by side, while the
// log checkpoints in the background, /microclusters reads and decay
// sweeps run, all finish — a window's tasks each hold one shard lock and
// record snapshots (every shard lock) only after letting it go, so
// nothing waits in a cycle — and every line is ingested once.
func TestClusterWindowConcurrent(t *testing.T) {
	setCheckpointFloor(t, 4<<10)
	s := newDurableCluster(t, t.TempDir(), 4)
	defer s.CloseDurability()
	h, cut := s.Handler(), s.Stats().Checkpoints
	const clients, windows = 4, 12
	done := make(chan struct{})
	var writers, readers sync.WaitGroup
	for c := 0; c < clients; c++ {
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
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/microclusters?minw=0.5", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("/microclusters: %d %s", rec.Code, rec.Body)
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
				s.AdvanceDecay()
			}
		}
	}()
	finished := make(chan struct{})
	go func() { writers.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("concurrent windows did not finish: a lock cycle")
	}
	close(done)
	readers.Wait()
	st := s.Stats()
	if want := int64(clients * windows * streamWindow); st.Clock != want || st.Inserts != want {
		t.Fatalf("clock %d, inserts %d after %d lines", st.Clock, st.Inserts, want)
	}
	if st.Checkpoints == cut {
		t.Fatal("no background checkpoint ran beside the windows")
	}
}
