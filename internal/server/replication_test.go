package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/replica"
)

// The failover acceptance property (both workloads): kill the primary
// mid-ingest, promote the follower, and (a) no acknowledged insert is
// lost, (b) the promoted replica is digit-identical to an uninterrupted
// run at the same applied LSN, and (c) a restarted stale primary is
// fenced — it refuses writes against the newer epoch, durably.

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// appliedLSN reads a follower's applied LSN without taking a shard
// lock.
func appliedLSN[S Served](f *Follower[S]) uint64 {
	var zero S
	s := f.Current()
	if s == zero {
		return 0
	}
	switch v := any(s).(type) {
	case *Server:
		return v.repl.applied.Load()
	case *ClusterServer:
		return v.repl.applied.Load()
	}
	return 0
}

// deadURL is the base URL of a loopback port nothing listens on.
func deadURL(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	return "http://" + ln.Addr().String()
}

// killServer severs an httptest primary the way SIGKILL would: client
// connections (the replication stream among them) are cut mid-flight,
// then the listener goes away.
func killServer(ts *httptest.Server) {
	ts.CloseClientConnections()
	ts.Close()
}

func TestFailoverClassKillPrimary(t *testing.T) {
	const n, kill = 300, 117
	xs, ys := classPoints(n)
	primDir, follDir := t.TempDir(), t.TempDir()

	prim := newDurableClass(t, primDir, 3)
	ts := httptest.NewServer(prim.Handler())

	foll, err := NewFollowerServer(DurabilityOptions{Dir: follDir}, Config{}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Every Insert that returns nil is an acknowledged write.
	for i := 0; i < kill; i++ {
		if err := prim.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "follower to apply all acknowledged inserts", func() bool {
		return appliedLSN(foll) == uint64(kill)
	})
	if st := prim.Stats(); st.ReplShippedLSN != uint64(kill) || st.ReplFollowers != 1 {
		t.Fatalf("primary shipped LSN %d with %d followers, want %d and 1",
			st.ReplShippedLSN, st.ReplFollowers, kill)
	}

	// SIGKILL the primary: listener gone, flock released, stream cut,
	// WAL left as-is. The tail, still running, reports what dropped it.
	ts.Listener.Close()
	crash(t, prim.dur)
	killServer(ts)
	waitFor(t, 10*time.Second, "the follower to report its tail error", func() bool {
		return foll.Current().Stats().ReplTailError != ""
	})

	if err := foll.Promote(); err != nil {
		t.Fatal(err)
	}
	promoted := foll.Current()

	// (b) digit-identity at the same applied LSN: an uninterrupted
	// reference run of exactly the acknowledged prefix.
	ref, err := NewEmpty(3, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < kill; i++ {
		if err := ref.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if sa, sb := snapshotBytes(t, promoted), snapshotBytes(t, ref); !bytes.Equal(sa, sb) {
		t.Fatalf("promoted replica differs from uninterrupted run at LSN %d: %d vs %d bytes",
			kill, len(sa), len(sb))
	}

	// Promotion bumped the fencing epoch and durably committed it.
	if got := promoted.Epoch(); got != 1 {
		t.Fatalf("promoted epoch = %d, want 1", got)
	}
	if st := promoted.Stats(); st.Role != "primary" || st.Fenced {
		t.Fatalf("promoted stats = role %q fenced %v, want primary/false", st.Role, st.Fenced)
	}

	// (a) no acknowledged insert lost, and the promoted node takes
	// writes: drive the rest of the stream and stay digit-identical.
	for i := kill; i < n; i++ {
		if err := promoted.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
		if err := ref.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if sa, sb := snapshotBytes(t, promoted), snapshotBytes(t, ref); !bytes.Equal(sa, sb) {
		t.Fatal("promoted replica diverged from reference after taking over the stream")
	}
	if err := foll.Persist(); err != nil {
		t.Fatal(err)
	}

	// (c) the stale primary restarts with all its acknowledged state —
	// nothing lost there either — but is fenced the moment anything
	// probes it with the newer epoch, and the fence survives restarts.
	old := newDurableClass(t, primDir, 3)
	// The tailer's connect cut a checkpoint on the primary, so the
	// acknowledged prefix is split between snapshot and WAL tail — the
	// total observation count is the nothing-lost assertion.
	if got := old.Stats().Observations; got != kill {
		t.Fatalf("stale primary recovered %d observations, want %d", got, kill)
	}
	ts2 := httptest.NewServer(old.Handler())
	req, _ := http.NewRequest(http.MethodGet, ts2.URL+"/replicate", nil)
	req.Header.Set(replica.EpochHeader, replica.FormatEpoch(promoted.Epoch()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale primary probed with epoch %d answered %d, want 409",
			promoted.Epoch(), resp.StatusCode)
	}
	if err := old.Insert(xs[0], ys[0]); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("fenced primary accepted a write (err = %v)", err)
	}
	if _, err := os.Stat(filepath.Join(primDir, fencedName)); err != nil {
		t.Fatalf("no durable FENCED marker after fencing: %v", err)
	}
	crash(t, old.dur)
	killServer(ts2)

	// Restarted again: the on-disk fence re-arms (its manifest epoch is
	// still behind), so it keeps refusing writes.
	old2 := newDurableClass(t, primDir, 3)
	if err := old2.Insert(xs[0], ys[0]); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("restarted stale primary accepted a write (err = %v)", err)
	}
	if st := old2.Stats(); !st.Fenced || st.FencedBy != 1 {
		t.Fatalf("restarted stale primary stats = fenced %v by %d, want true by 1", st.Fenced, st.FencedBy)
	}
	old2.CloseDurability()
}

func TestFailoverClusterKillPrimary(t *testing.T) {
	const n, kill = 300, 117
	rng := rand.New(rand.NewSource(11))
	xs := make([][]float64, n)
	budgets := make([]int, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		budgets[i] = 1 + i%7
	}
	primDir, follDir := t.TempDir(), t.TempDir()
	copts := ClusterOptions{}

	prim := newDurableCluster(t, primDir, 3)
	ts := httptest.NewServer(prim.Handler())

	foll, err := NewFollowerCluster(DurabilityOptions{Dir: follDir}, Config{}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential ingest: global timestamp order equals stream order, so
	// the uninterrupted run's timestamps are the primary's.
	for i := 0; i < kill; i++ {
		if _, err := prim.Insert(xs[i], budgets[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "cluster follower to apply all acknowledged inserts", func() bool {
		return appliedLSN(foll) == uint64(kill)
	})

	foll.stopTail()
	crash(t, prim.dur)
	killServer(ts)

	if err := foll.Promote(); err != nil {
		t.Fatal(err)
	}
	promoted := foll.Current()
	if promoted.Clock() != kill {
		t.Fatalf("promoted clock = %d, want %d", promoted.Clock(), kill)
	}
	if got := promoted.Epoch(); got != 1 {
		t.Fatalf("promoted epoch = %d, want 1", got)
	}

	// Reference run of the full stream; the promoted replica finishes it.
	ref, err := NewCluster(clustree.DefaultConfig(2), 3, Config{}, copts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := ref.Insert(xs[i], budgets[i]); err != nil {
			t.Fatal(err)
		}
		if i >= kill {
			if _, err := promoted.Insert(xs[i], budgets[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sa, sb := snapshotBytes(t, promoted), snapshotBytes(t, ref); !bytes.Equal(sa, sb) {
		t.Fatalf("promoted cluster replica diverged from uninterrupted run: %d vs %d bytes", len(sa), len(sb))
	}
	sta, stb := promoted.Stats(), ref.Stats()
	if sta.Clock != stb.Clock || sta.MicroClusters != stb.MicroClusters ||
		sta.Parked != stb.Parked {
		t.Fatalf("cluster stats diverge: %+v vs %+v", sta, stb)
	}
	if err := foll.Persist(); err != nil {
		t.Fatal(err)
	}

	// Stale primary: fenced on probe, refuses ingest, fence is durable.
	old := newDurableCluster(t, primDir, 3)
	ts2 := httptest.NewServer(old.Handler())
	req, _ := http.NewRequest(http.MethodGet, ts2.URL+"/replicate", nil)
	req.Header.Set(replica.EpochHeader, replica.FormatEpoch(1))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale cluster primary probed with epoch 1 answered %d, want 409", resp.StatusCode)
	}
	if _, err := old.Insert(xs[0], 1); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("fenced cluster primary accepted an insert (err = %v)", err)
	}
	crash(t, old.dur)
	killServer(ts2)
	old2 := newDurableCluster(t, primDir, 3)
	if _, err := old2.Insert(xs[0], 1); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("restarted stale cluster primary accepted an insert (err = %v)", err)
	}
	old2.CloseDurability()
}

// TestFailoverDamagedFenceFailsClosed is TestFailoverClassKillPrimary's
// last restart with the FENCED marker damaged first: a stale primary,
// fenced by a probe with the newer epoch and crashed, must refuse to
// open on a marker that no longer parses — not come back unfenced and
// ack writes. Made whole again, the marker re-arms the fence.
func TestFailoverDamagedFenceFailsClosed(t *testing.T) {
	xs, ys := classPoints(20)
	dir := t.TempDir()
	prim := newDurableClass(t, dir, 3)
	for i := range xs {
		if err := prim.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(prim.Handler())
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/replicate", nil)
	req.Header.Set(replica.EpochHeader, replica.FormatEpoch(1))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale primary probed with epoch 1 answered %d, want 409", resp.StatusCode)
	}
	crash(t, prim.dur)
	killServer(ts)

	path := filepath.Join(dir, fencedName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, damaged := range []string{`{"epo`, "", "{}", `{"epoch":0}`, `{"epoch":"1"}`, `{"epoch":1}x`} {
		if err := os.WriteFile(path, []byte(damaged), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenDurableServer(DurabilityOptions{Dir: dir}, Config{}, func() (*Server, error) {
			return NewEmpty(3, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
		})
		if err == nil {
			ierr := s.Recover()
			if ierr == nil {
				ierr = s.Insert(xs[0], ys[0])
			}
			s.CloseDurability()
			t.Fatalf("a FENCED marker reading %q let the stale primary open (insert: %v), want the open refused", damaged, ierr)
		}
		if !strings.Contains(err.Error(), fencedName) {
			t.Fatalf("a FENCED marker reading %q: open refused with %v, which does not name the marker", damaged, err)
		}
	}
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	old := newDurableClass(t, dir, 3)
	if err := old.Insert(xs[0], ys[0]); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("restarted stale primary accepted a write (err = %v)", err)
	}
	old.CloseDurability()
}

// FuzzFencedMarker: what decodeFenced accepts carries a nonzero epoch,
// and every cut of a marker writeFenced wrote reads as that marker's
// epoch or is refused — a torn marker never reads as a different fence
// or as none.
func FuzzFencedMarker(f *testing.F) {
	f.Add([]byte(`{"epoch":1}`), uint64(1), 5)
	f.Add([]byte(`{"epo`), uint64(7), 0)
	f.Add([]byte(`{}`), uint64(math.MaxUint64), 12)
	f.Add([]byte(`{"epoch":0}`), uint64(12), 100)
	f.Add([]byte(`{"epoch":18446744073709551616}`), uint64(10), -3)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte, epoch uint64, cut int) {
		if e, err := decodeFenced(raw); err == nil && e == 0 {
			t.Fatalf("%q read as epoch 0", raw)
		}
		if epoch == 0 {
			return
		}
		if err := writeFenced(dir, epoch); err != nil {
			t.Fatal(err)
		}
		whole, err := os.ReadFile(filepath.Join(dir, fencedName))
		if err != nil {
			t.Fatal(err)
		}
		cut = int(uint(cut) % uint(len(whole)+1))
		if e, err := decodeFenced(whole[:cut]); err == nil && e != epoch {
			t.Fatalf("%q, cut from a marker for epoch %d, read as epoch %d", whole[:cut], epoch, e)
		} else if err != nil && cut == len(whole) {
			t.Fatalf("the marker writeFenced wrote, %q, is refused: %v", whole, err)
		}
	})
}

// statsOver fetches and decodes /stats from a follower's HTTP surface.
func statsOver(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats = %d, want 200", resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFollowerStalenessAndRedirect: a follower serves reads and /stats
// (reporting role, applied LSN, and a staleness bound that grows when
// the tail pauses), while writes answer 307 with the primary's address.
func TestFollowerStalenessAndRedirect(t *testing.T) {
	const n = 40
	xs, ys := classPoints(n)
	prim := newDurableClass(t, t.TempDir(), 2)
	// The primary serves only once the follower has been seen waiting
	// for its first bootstrap.
	ts := httptest.NewUnstartedServer(prim.Handler())

	foll, err := NewFollowerServer(DurabilityOptions{Dir: t.TempDir()}, Config{}, "http://"+ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(foll.Handler())
	defer killServer(fts)

	// Before the first bootstrap: live but not ready.
	resp, err := http.Get(fts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /healthz before bootstrap = %d, want 200", resp.StatusCode)
	}
	resp, _ = http.Get(fts.URL + "/stats")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower /stats before bootstrap = %d, want 503", resp.StatusCode)
	}

	ts.Start()
	for i := 0; i < n; i++ {
		if err := prim.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "follower to catch up", func() bool {
		return appliedLSN(foll) == uint64(n)
	})

	st := statsOver(t, fts.URL)
	if st.Role != "follower" || st.AppliedLSN != n || !st.ReplConnected {
		t.Fatalf("follower stats = role %q applied %d connected %v, want follower/%d/true",
			st.Role, st.AppliedLSN, st.ReplConnected, n)
	}
	if st.StalenessMs < 0 {
		t.Fatalf("staleness = %d ms on a caught-up follower, want >= 0", st.StalenessMs)
	}

	// Follower reads work: classify against the replicated model.
	body, _ := json.Marshal(ClassifyRequest{X: xs[0]})
	resp, err = http.Post(fts.URL+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /classify = %d, want 200", resp.StatusCode)
	}

	// Writes redirect to the primary with the path preserved.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	body, _ = json.Marshal(insertRequest{X: xs[0], Label: ys[0]})
	resp, err = noFollow.Post(fts.URL+"/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower /insert = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != ts.URL+"/insert" {
		t.Fatalf("redirect Location = %q, want %q", loc, ts.URL+"/insert")
	}

	// Pause the tail: the applied LSN freezes and the reported staleness
	// bound grows past anything heartbeats would allow.
	foll.stopTail()
	killServer(ts)
	st1 := statsOver(t, fts.URL)
	waitFor(t, 10*time.Second, "staleness bound to grow", func() bool {
		st2 := statsOver(t, fts.URL)
		return st2.AppliedLSN == uint64(n) && st2.StalenessMs > st1.StalenessMs && st2.StalenessMs >= 100
	})

	if err := foll.Persist(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerNamesTailError: before its first bootstrap, a follower
// whose primary refuses connections names the dial error in the 503 its
// reads answer.
func TestFollowerNamesTailError(t *testing.T) {
	foll, err := NewFollowerServer(DurabilityOptions{Dir: t.TempDir()}, Config{}, deadURL(t))
	if err != nil {
		t.Fatal(err)
	}
	defer foll.stopTail()
	var body string
	waitFor(t, 10*time.Second, "the 503 to name the dial error", func() bool {
		rec := httptest.NewRecorder()
		foll.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		body = rec.Body.String()
		return rec.Code == http.StatusServiceUnavailable && strings.Contains(body, "dial tcp")
	})
	if !strings.Contains(body, "connection refused") {
		t.Fatalf("503 body %q does not name the refused connection", body)
	}
}

// TestFollowerRebootstrapAfterOverflow: when the primary's per-follower
// buffer overflows (a stalled reader), the stream is cut and the tailer
// re-bootstraps from a fresh checkpoint, converging again. Simulated
// directly: restart the tail after the stream was dropped mid-way.
func TestFollowerResumeAfterDisconnect(t *testing.T) {
	const n = 120
	xs, ys := classPoints(n)
	prim := newDurableClass(t, t.TempDir(), 2)
	ts := httptest.NewServer(prim.Handler())
	defer killServer(ts)

	foll, err := NewFollowerServer(DurabilityOptions{Dir: t.TempDir()}, Config{}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/2; i++ {
		if err := prim.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "first half applied", func() bool {
		return appliedLSN(foll) == uint64(n/2)
	})

	// Drop the stream (primary keeps running), insert the second half
	// while the follower is dark, then let it reconnect.
	foll.stopTail()
	ts.CloseClientConnections()
	for i := n / 2; i < n; i++ {
		if err := prim.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	foll.startTail()
	defer foll.stopTail()

	// The reconnect bootstraps from a fresh checkpoint that already
	// contains everything, so the model converges to the full stream.
	ref, err := NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := ref.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotBytes(t, ref)
	waitFor(t, 10*time.Second, "follower to converge after reconnect", func() bool {
		s := foll.Current()
		return s != nil && bytes.Equal(snapshotBytes(t, s), want)
	})
	if err := foll.Persist(); err != nil {
		t.Fatal(err)
	}
	prim.CloseDurability()
}
