package server

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/replica"
)

// A follower tails its primary from the moment it is built; Promote and
// Persist stop the tail, and a failed Promote resumes it. These tests
// drive the tail's paths the failover tests do not reach: a promote
// that fails, a stale primary, a silent one, and the quiet after a
// promote.

// TestFollowerFailedPromoteKeepsTailing: a promote before the first
// bootstrap fails and leaves the follower tailing, so it bootstraps from
// its primary once that comes up and applies the primary's writes.
func TestFollowerFailedPromoteKeepsTailing(t *testing.T) {
	const n = 20
	url := deadURL(t)
	foll, err := NewFollowerServer(DurabilityOptions{Dir: t.TempDir()}, Config{}, url)
	if err != nil {
		t.Fatal(err)
	}
	defer foll.stopTail()
	if err := foll.Promote(); err == nil || !strings.Contains(err.Error(), "nothing to promote") {
		t.Fatalf("promote before the first bootstrap: %v, want \"nothing to promote\"", err)
	}

	prim := newDurableClass(t, t.TempDir(), 2)
	defer prim.CloseDurability()
	ln, err := net.Listen("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(prim.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	defer killServer(ts)
	xs, ys := classPoints(n)
	for i := range xs {
		if err := prim.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "the follower to bootstrap and apply every insert", func() bool {
		return appliedLSN(foll) == n
	})
	if !bytes.Equal(snapshotBytes(t, foll.Current()), snapshotBytes(t, prim)) {
		t.Fatal("the follower is not its primary")
	}
	if err := foll.Persist(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerStalePrimaryRefused: a follower of epoch 1 refuses the
// stream of a primary of epoch 0, whether the primary answers its
// request with 409 or ships a header of the older epoch; /stats names
// the stale primary and the follower keeps its state and epoch.
func TestFollowerStalePrimaryRefused(t *testing.T) {
	prim := newDurableClass(t, t.TempDir(), 2)
	defer prim.CloseDurability()
	ts := httptest.NewServer(prim.Handler())
	defer killServer(ts)

	// A follower promoted to epoch 1 leaves its directory at that epoch.
	dir := t.TempDir()
	first, err := NewFollowerServer(DurabilityOptions{Dir: dir}, Config{}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the first bootstrap", func() bool { return first.Current() != nil })
	if err := first.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := first.Persist(); err != nil {
		t.Fatal(err)
	}

	refused := func(t *testing.T, url string) {
		foll, err := NewFollowerServer(DurabilityOptions{Dir: dir}, Config{}, url)
		if err != nil {
			t.Fatal(err)
		}
		fts := httptest.NewServer(foll.Handler())
		defer killServer(fts)
		var st Stats
		waitFor(t, 10*time.Second, "/stats to name the stale primary", func() bool {
			st = statsOver(t, fts.URL)
			return strings.Contains(st.ReplTailError, "primary is stale")
		})
		if st.Epoch != 1 || st.Role != "follower" || st.ReplConnected {
			t.Fatalf("follower of a stale primary: epoch %d, role %q, connected %v; want 1, follower, false",
				st.Epoch, st.Role, st.ReplConnected)
		}
		if err := foll.Persist(); err != nil {
			t.Fatal(err)
		}
	}
	// The primary sees the newer epoch, fences itself and answers 409.
	t.Run("409", func(t *testing.T) { refused(t, ts.URL) })
	// A primary that never reads the epoch streams its own, older one.
	t.Run("header", func(t *testing.T) {
		old := newDurableClass(t, t.TempDir(), 2)
		defer old.CloseDurability()
		ots := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Del(replica.EpochHeader)
			old.Handler().ServeHTTP(w, r)
		}))
		defer killServer(ots)
		refused(t, ots.URL)
	})
}

// TestFollowerSilentPrimaryDropped: a primary that ships its header and
// snapshot and then sends nothing, not even heartbeats, has its
// connection dropped once the silence timeout passes.
func TestFollowerSilentPrimaryDropped(t *testing.T) {
	// Room for the bootstrap of an empty model, which the watchdog times
	// too, on a slow disk.
	setSilenceTimeout(t, 200*time.Millisecond)
	src, err := NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotBytes(t, src)
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The first connection gets a checkpoint, every later one not
		// even a status line.
		if conns.Add(1) == 1 {
			replica.WriteHeader(w, replica.Header{
				Proto: replica.Proto, Workload: replica.WorkloadClassify, Generation: 1,
				Shards: 2, SnapshotBytes: int64(len(snap)),
			})
			w.Write(snap)
			w.(http.Flusher).Flush()
		}
		<-r.Context().Done()
	}))
	defer killServer(ts)

	foll, err := NewFollowerServer(DurabilityOptions{Dir: t.TempDir()}, Config{}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer foll.stopTail()
	waitFor(t, 10*time.Second, "the silent stream to be dropped", func() bool {
		s := foll.Current()
		return s != nil && conns.Load() >= 2 && s.Stats().ReplTailError != ""
	})
	if got, want := foll.Current().Stats().ReplTailError, "replica: no frame from the primary for 200ms"; got != want {
		t.Fatalf("tail error %q, want %q", got, want)
	}
	if err := foll.Persist(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerPromoteStopsTail: once a follower is promoted, its old
// primary's /replicate handler sees the stream close and no connection
// after the one fence probe.
func TestFollowerPromoteStopsTail(t *testing.T) {
	const n = 10
	prim := newDurableClass(t, t.TempDir(), 2)
	defer prim.CloseDurability()
	var conns, open atomic.Int32
	h := prim.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/replicate" {
			conns.Add(1)
			open.Add(1)
			defer open.Add(-1)
		}
		h.ServeHTTP(w, r)
	}))
	defer killServer(ts)

	foll, err := NewFollowerServer(DurabilityOptions{Dir: t.TempDir()}, Config{}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer foll.stopTail()
	xs, ys := classPoints(n)
	for i := range xs {
		if err := prim.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "the follower to apply every insert", func() bool { return appliedLSN(foll) == n })

	before := conns.Load()
	if err := foll.Promote(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the stream to close and the fence probe to land", func() bool {
		return open.Load() == 0 && conns.Load() == before+1 && prim.Stats().Fenced
	})
	// A tail left running would reconnect within tailBackoffMax.
	time.Sleep(2 * tailBackoffMax)
	if got := conns.Load(); got != before+1 || open.Load() != 0 {
		t.Fatalf("/replicate saw %d connections after the promote, %d open, want 1 (the fence probe) and 0",
			got-before, open.Load())
	}
	if err := foll.Persist(); err != nil {
		t.Fatal(err)
	}
}
