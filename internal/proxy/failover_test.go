package proxy

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/server"
)

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

// statsField fetches one numeric field from a backend's /stats.
func statsField(t *testing.T, url, field string) float64 {
	t.Helper()
	status, body := getBytes(t, url+"/stats")
	if status != http.StatusOK {
		return -1
	}
	var raw map[string]interface{}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	v, _ := raw[field].(float64)
	return v
}

// snapshotOf captures a server's full model state.
func snapshotOf(t *testing.T, s *server.Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestProxyFailoverKillPrimary is the failover acceptance criterion at
// the proxy layer: a WAL-replicated primary dies mid-stream, the
// follower is promoted, and the proxy must reroute writes to it with
// zero acked-insert loss — every insert the proxy acked is in the
// promoted model, digit-identical to an uninterrupted run — while a
// restarted stale primary is fenced by the prober's epoch probe and
// refuses writes durably.
func TestProxyFailoverKillPrimary(t *testing.T) {
	const phase1, phase2 = 120, 60
	rng := rand.New(rand.NewSource(23))
	xs := make([][]float64, phase1+phase2+1)
	ys := make([]int, len(xs))
	for i := range xs {
		xs[i], ys[i] = genPoint(rng)
	}

	primDir := t.TempDir()
	prim, err := server.OpenDurableServer(server.DurabilityOptions{Dir: primDir}, server.Config{},
		func() (*server.Server, error) {
			return server.NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, server.Config{})
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := prim.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(prim.Handler())
	primAddr := ts.Listener.Addr().String()

	foll, err := server.NewFollowerServer(server.DurabilityOptions{Dir: t.TempDir()}, server.Config{}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(foll.Handler())
	defer fts.Close()

	p, err := New(Config{
		Groups:       []Group{{Primary: ts.URL, Replicas: []string{fts.URL}}},
		ProbeEvery:   30 * time.Millisecond,
		WriteRetries: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Start()
	pts := httptest.NewServer(p.Handler())
	defer pts.Close()

	// Phase 1: acked inserts through the proxy land on the primary and
	// replicate to the follower.
	for i := 0; i < phase1; i++ {
		body, _ := json.Marshal(map[string]interface{}{"x": xs[i], "label": ys[i]})
		status, resp := postJSON(t, pts.URL+"/insert", string(body))
		if status != http.StatusOK {
			t.Fatalf("insert %d: status %d: %s", i, status, resp)
		}
	}
	waitFor(t, 10*time.Second, "follower to apply all acked inserts", func() bool {
		return statsField(t, fts.URL, "applied_lsn") == phase1
	})

	// Reads through the proxy are served by the fresh follower, not the
	// primary.
	p.ProbeNow()
	classifyVia(t, pts.URL)
	if st := p.CurrentStats(); st.Backends[1].Requests < 1 {
		t.Fatalf("follower served %d reads, want >= 1 (reads must scatter to followers)", st.Backends[1].Requests)
	}

	// The primary dies; the follower is promoted. The epoch bump is the
	// new line of succession.
	ts.CloseClientConnections()
	ts.Close()
	if err := foll.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	p.ProbeNow()

	// Phase 2: the proxy reroutes writes to the promoted replica — every
	// one must be acked, none lost.
	for i := phase1; i < phase1+phase2; i++ {
		body, _ := json.Marshal(map[string]interface{}{"x": xs[i], "label": ys[i]})
		status, resp := postJSON(t, pts.URL+"/insert", string(body))
		if status != http.StatusOK {
			t.Fatalf("post-failover insert %d: status %d: %s", i, status, resp)
		}
	}

	// Zero acked-insert loss and digit-identity: the promoted model
	// equals an uninterrupted single-process run over every acked
	// insert.
	promoted := foll.Current()
	if got := promoted.Len(); got != phase1+phase2 {
		t.Fatalf("promoted replica has %d observations, want %d — acked inserts lost", got, phase1+phase2)
	}
	ref, err := server.NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < phase1+phase2; i++ {
		if err := ref.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snapshotOf(t, promoted), snapshotOf(t, ref)) {
		t.Fatal("promoted replica differs from the uninterrupted reference run")
	}

	// The stale primary comes back on its old address at its old epoch.
	// The prober's fencing assist must tell it about the new epoch so it
	// durably fences itself and refuses writes.
	prim.CloseDurability()
	prim2, err := server.OpenDurableServer(server.DurabilityOptions{Dir: primDir}, server.Config{},
		func() (*server.Server, error) {
			return server.NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, server.Config{})
		})
	if err != nil {
		t.Fatalf("reopen stale primary: %v", err)
	}
	if err := prim2.Recover(); err != nil {
		t.Fatalf("recover stale primary: %v", err)
	}
	l, err := net.Listen("tcp", primAddr)
	if err != nil {
		t.Fatalf("rebind %s: %v", primAddr, err)
	}
	ts2 := httptest.NewUnstartedServer(prim2.Handler())
	ts2.Listener.Close()
	ts2.Listener = l
	ts2.Start()
	defer ts2.Close()

	p.ProbeNow() // sees two primaries; fences the lower epoch
	waitFor(t, 5*time.Second, "stale primary to be fenced", func() bool {
		status, body := getBytes(t, ts2.URL+"/stats")
		if status != http.StatusOK {
			return false
		}
		var raw struct {
			Fenced bool `json:"fenced"`
		}
		return json.Unmarshal(body, &raw) == nil && raw.Fenced
	})

	// Direct writes to the fenced ex-primary fail; writes through the
	// proxy keep landing on the promoted replica.
	body, _ := json.Marshal(map[string]interface{}{"x": xs[phase1+phase2], "label": ys[phase1+phase2]})
	status, _ := postJSON(t, ts2.URL+"/insert", string(body))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("fenced primary answered insert with %d, want 503", status)
	}
	status, resp := postJSON(t, pts.URL+"/insert", string(body))
	if status != http.StatusOK {
		t.Fatalf("proxied insert with stale primary back: status %d: %s", status, resp)
	}
	if got := promoted.Len(); got != phase1+phase2+1 {
		t.Fatalf("promoted replica has %d observations, want %d", got, phase1+phase2+1)
	}

	if err := foll.Persist(); err != nil {
		t.Fatal(err)
	}
	prim2.CloseDurability()
}
