package proxy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// resultPayload is the identical answer every fake backend serves —
// replicas of one primary are digit-identical, so which target served a
// read must not show in the proxy's response.
const resultPayload = `{"label":1,"requested":32,"granted":32,"nodes_read":32,"degraded":false,"scores":[-1.5,-0.5,-2.5],"weight":100,"labels":[0,1,2]}`

// fakeBackend is a scripted backend: fixed /stats, and a /classify that
// answers resultPayload, a scripted error status, or — in slow mode —
// nothing until slowDelay has passed, recording whether the request's
// context was cancelled first.
type fakeBackend struct {
	ts        *httptest.Server
	name      string
	status    atomic.Int64 // a /classify status to answer instead; 0 serves the read
	slow      atomic.Bool
	slowDelay time.Duration
	cancelled chan struct{}
	served    atomic.Int64
}

// newFakeBackend starts a scripted backend that answers /stats with
// stats and names itself in its scripted errors.
func newFakeBackend(t *testing.T, name, stats string, slowDelay time.Duration) *fakeBackend {
	t.Helper()
	f := &fakeBackend{name: name, slowDelay: slowDelay, cancelled: make(chan struct{}, 16)}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/stats":
			fmt.Fprint(w, stats)
		case "/classify":
			// Consume the body like a real handler decoding it would —
			// the server only watches for client disconnects (context
			// cancellation) once the request body is drained.
			io.Copy(io.Discard, r.Body)
			if f.slow.Load() {
				select {
				case <-r.Context().Done():
					f.cancelled <- struct{}{}
					return
				case <-time.After(f.slowDelay):
				}
			}
			w.Header().Set("Content-Type", "application/json")
			if code := int(f.status.Load()); code != 0 {
				w.WriteHeader(code)
				fmt.Fprintf(w, `{"error":"scripted %d from %s"}`+"\n", code, f.name)
				return
			}
			f.served.Add(1)
			fmt.Fprintln(w, resultPayload)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	t.Cleanup(f.ts.Close)
	return f
}

// newFakeReplica is a follower at a fixed staleness bound.
func newFakeReplica(t *testing.T, stalenessMs int, slowDelay time.Duration) *fakeBackend {
	t.Helper()
	return newFakeBackend(t, fmt.Sprintf("follower-%dms", stalenessMs),
		fmt.Sprintf(`{"role":"follower","staleness_ms":%d,"observations":100,"weight":100}`, stalenessMs), slowDelay)
}

// newFakePrimary serves primary-shaped /stats so the group has a
// fallback and an observation count for budget splits.
func newFakePrimary(t *testing.T) *fakeBackend {
	t.Helper()
	return newFakeBackend(t, "primary", `{"role":"primary","observations":100,"weight":100}`, 0)
}

// classifyVia sends one classify through a proxy handler and returns
// the response bytes.
func classifyVia(t *testing.T, url string) []byte {
	t.Helper()
	status, body := postJSON(t, url+"/classify", `{"x":[1.0,2.0,3.0],"budget":32}`)
	if status != http.StatusOK {
		t.Fatalf("classify status %d: %s", status, body)
	}
	return body
}

// TestReadFallsBackToPrimaryWhenFollowersStale pins the
// degrade-never-error path: followers beyond the staleness window are
// skipped and the read lands on the primary instead of erroring.
func TestReadFallsBackToPrimaryWhenFollowersStale(t *testing.T) {
	stale := newFakeReplica(t, 60_000, 0) // a minute stale
	primServed := atomic.Int64{}
	prim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/stats":
			fmt.Fprint(w, `{"role":"primary","observations":100,"weight":100}`)
		case "/classify":
			primServed.Add(1)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, resultPayload)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer prim.Close()

	p, err := New(Config{Groups: []Group{{Primary: prim.URL, Replicas: []string{stale.ts.URL}}},
		MaxStaleness: 5 * time.Second})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	p.ProbeNow()
	pts := httptest.NewServer(p.Handler())
	defer pts.Close()

	classifyVia(t, pts.URL)
	if primServed.Load() != 1 {
		t.Fatalf("primary served %d reads, want 1 (stale follower must be skipped)", primServed.Load())
	}
	if stale.served.Load() != 0 {
		t.Fatal("stale follower served a read")
	}
	if p.CurrentStats().PrimaryFallbacks != 1 {
		t.Fatalf("primary_fallbacks=%d, want 1", p.CurrentStats().PrimaryFallbacks)
	}
}

// TestReadEscalatesOnHardFailure pins the one read path: a group read
// walks its targets one at a time — least-stale follower, next follower,
// primary — moving on after a transport error or a 5xx only. A 4xx is
// the group's answer, every target failing is a 503 carrying the last
// error, a head that never answers holds the read until ReadTimeout, and
// primary_fallbacks counts only reads that had no fresh follower.
func TestReadEscalatesOnHardFailure(t *testing.T) {
	head := newFakeReplica(t, 2, 10*time.Second) // least stale → first target
	next := newFakeReplica(t, 8, 0)
	prim := newFakePrimary(t)
	const readTimeout = 300 * time.Millisecond
	p, err := New(Config{
		Groups:      []Group{{Primary: prim.ts.URL, Replicas: []string{head.ts.URL, next.ts.URL}}},
		ReadTimeout: readTimeout,
	})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	p.ProbeNow()
	pts := httptest.NewServer(p.Handler())
	defer pts.Close()

	// classify sends one read with head as the group's first target and
	// reports its status, body, and which backends served it.
	classify := func() (int, string, [3]int64) {
		t.Helper()
		before := [3]int64{head.served.Load(), next.served.Load(), prim.served.Load()}
		p.groups[0].rr.Store(0)
		status, body := postJSON(t, pts.URL+"/classify", `{"x":[1.0,2.0,3.0],"budget":32}`)
		return status, string(body), [3]int64{
			head.served.Load() - before[0], next.served.Load() - before[1], prim.served.Load() - before[2]}
	}

	if status, body, served := classify(); status != http.StatusOK || served != [3]int64{1, 0, 0} {
		t.Fatalf("healthy head: status %d %s, served %v; want 200 from the head", status, body, served)
	}

	head.status.Store(http.StatusInternalServerError)
	if status, body, served := classify(); status != http.StatusOK || served != [3]int64{0, 1, 0} {
		t.Fatalf("head answers 500: status %d %s, served %v; want 200 from the next follower", status, body, served)
	}

	head.status.Store(http.StatusBadRequest)
	status, body, served := classify()
	if status != http.StatusBadRequest || !strings.Contains(body, "scripted 400 from "+head.name) || served != [3]int64{} {
		t.Fatalf("head answers 400: status %d %s, served %v; want the head's 400, tried nowhere else", status, body, served)
	}

	head.status.Store(http.StatusInternalServerError)
	next.status.Store(http.StatusBadGateway)
	prim.status.Store(http.StatusServiceUnavailable)
	status, body, _ = classify()
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "scripted 503 from primary") {
		t.Fatalf("every target fails: status %d %s; want 503 carrying the primary's (last) error", status, body)
	}
	next.status.Store(0)
	prim.status.Store(0)

	// A head that accepts the read and never answers holds it: the walk
	// ends with the request's deadline, not at the next follower.
	head.status.Store(0)
	head.slow.Store(true)
	start := time.Now()
	status, body, served = classify()
	if status != http.StatusServiceUnavailable || served != [3]int64{} {
		t.Fatalf("silent head: status %d %s, served %v; want 503 at the read deadline", status, body, served)
	}
	if elapsed := time.Since(start); elapsed < readTimeout {
		t.Fatalf("silent head: answered after %v, before the %v read deadline", elapsed, readTimeout)
	}
	select {
	case <-head.cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("the silent head's request context was never cancelled")
	}
	head.slow.Store(false)

	head.ts.Close() // a closed listener: a transport error
	if status, body, served := classify(); status != http.StatusOK || served != [3]int64{0, 1, 0} {
		t.Fatalf("head closed: status %d %s, served %v; want 200 from the next follower", status, body, served)
	}
	if n := p.CurrentStats().PrimaryFallbacks; n != 0 {
		t.Fatalf("primary_fallbacks=%d after reads that had fresh followers, want 0", n)
	}

	next.ts.Close()
	p.ProbeNow() // no fresh follower left
	if status, body, served := classify(); status != http.StatusOK || served != [3]int64{0, 0, 1} {
		t.Fatalf("no fresh follower: status %d %s, served %v; want 200 from the primary", status, body, served)
	}
	if n := p.CurrentStats().PrimaryFallbacks; n != 1 {
		t.Fatalf("primary_fallbacks=%d, want 1", n)
	}
}
