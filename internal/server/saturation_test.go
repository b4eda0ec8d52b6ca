package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
)

// Admission saturation, as a property test on a stubbed clock: under
// sustained overload the server's answers degrade — granted budgets
// fall to zero — but classification never errors, and total consumed
// node reads stay within the token bucket's rate·T + burst envelope
// even with refunds recycling unspent grants.

// TestAdmissionSaturationDegradesNeverErrors freezes the bucket's
// clock, drains it with a hammer of classify calls, and checks the
// degrade-never-error contract plus the hard capacity bound.
func TestAdmissionSaturationDegradesNeverErrors(t *testing.T) {
	const (
		rate   = 50.0
		burst  = 100.0
		budget = 8
	)
	s, err := NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{},
		Config{NodesPerSecond: rate})
	if err != nil {
		t.Fatal(err)
	}
	s.admit = newTokenBucket(rate, burst)
	xs, ys := classPoints(90)
	for i := range xs {
		if err := s.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Stub the admission clock: time moves only when the test says so.
	now := time.Unix(1_000_000, 0)
	s.admit.now = func() time.Time { return now }

	// Phase 1 — frozen clock: no refill ever. The bucket starts full at
	// burst; once consumed node reads reach it, every answer must be
	// granted 0, marked degraded, and still carry a valid label.
	readBefore := s.Stats().NodesRead
	zeroRun := 0
	for i := 0; i < 5000 && zeroRun < 50; i++ {
		res, err := s.Classify(xs[i%len(xs)], budget)
		if err != nil {
			t.Fatalf("classify %d errored under overload: %v", i, err)
		}
		if res.Requested != budget {
			t.Fatalf("requested = %d, want %d", res.Requested, budget)
		}
		if res.Granted == 0 {
			zeroRun++
			if !res.Degraded {
				t.Fatalf("granted 0 of %d not marked degraded", budget)
			}
		} else {
			zeroRun = 0
		}
	}
	if zeroRun < 50 {
		t.Fatalf("bucket never drained to sustained zero grants (run = %d)", zeroRun)
	}
	consumed := s.Stats().NodesRead - readBefore
	if float64(consumed) > burst {
		t.Fatalf("frozen clock: consumed %d node reads > burst %g", consumed, burst)
	}

	// Phase 2 — advance the clock in fixed steps under saturating demand:
	// consumed reads over T seconds stay within rate·T plus whatever
	// balance phase 1 left (< burst), with refunds recycling rather than
	// multiplying capacity. The lower bound checks refunds do not strand
	// capacity either: the bucket's fractional carry means sustained
	// demand consumes nearly everything refilled.
	const (
		steps   = 400
		stepDur = 10 * time.Millisecond
	)
	readBefore = s.Stats().NodesRead
	for i := 0; i < steps; i++ {
		now = now.Add(stepDur)
		res, err := s.Classify(xs[i%len(xs)], budget)
		if err != nil {
			t.Fatalf("classify errored while clock advanced: %v", err)
		}
		if res.Granted > res.Requested {
			t.Fatalf("granted %d exceeds requested %d", res.Granted, res.Requested)
		}
	}
	T := (time.Duration(steps) * stepDur).Seconds()
	consumed = s.Stats().NodesRead - readBefore
	if float64(consumed) > rate*T+burst {
		t.Fatalf("consumed %d node reads over %.1fs > rate·T+burst = %g", consumed, T, rate*T+burst)
	}
	if float64(consumed) < rate*T/2 {
		t.Fatalf("consumed %d node reads over %.1fs < half of rate·T = %g — refunds stranding capacity",
			consumed, T, rate*T)
	}
	if st := s.Stats(); st.Degraded == 0 {
		t.Fatal("stats carry no degraded_requests after sustained overload")
	}
}

// TestHTTPClassifyCarriesBudgetFields pins the wire names of the
// per-response load signals on /classify: "requested", "granted" and
// "degraded" — what loadgen and any external monitor key on — in both
// the uncontended (granted == requested) and the saturated
// (granted < requested, degraded true) regimes.
func TestHTTPClassifyCarriesBudgetFields(t *testing.T) {
	xs, ys := classPoints(60)

	// Uncontended: no admission control, granted equals requested.
	free, err := NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if err := free.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	raw := postJSON(t, httptest.NewServer(free.Handler()), "/classify",
		`{"x":[0,0,0],"budget":8}`)
	requireField(t, raw, "requested", float64(8))
	requireField(t, raw, "granted", float64(8))
	requireField(t, raw, "degraded", false)

	// Saturated: a one-token bucket that never visibly refills, so the
	// second request is clipped and must say so on the wire.
	tight, err := NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{},
		Config{NodesPerSecond: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	tight.admit = newTokenBucket(0.001, 1)
	for i := range xs {
		if err := tight.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(tight.Handler())
	postJSON(t, ts, "/classify", `{"x":[0,0,0],"budget":8}`) // drains the single token
	raw = postJSON(t, ts, "/classify", `{"x":[0,0,0],"budget":8}`)
	requireField(t, raw, "requested", float64(8))
	requireField(t, raw, "granted", float64(0))
	requireField(t, raw, "degraded", true)
	if _, ok := raw["label"]; !ok {
		t.Fatal("degraded answer carries no label — degrade must still answer")
	}
}

// TestHTTPClusterCarriesBudgetFields is the clustering-side pin:
// /cluster ingest answers carry "requested", "granted", "degraded" and
// "parked".
func TestHTTPClusterCarriesBudgetFields(t *testing.T) {
	free, err := NewCluster(clustree.DefaultConfig(2), 2, Config{}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw := postJSON(t, httptest.NewServer(free.Handler()), "/cluster",
		`{"x":[0.3,0.7],"budget":4}`)
	requireField(t, raw, "requested", float64(4))
	requireField(t, raw, "granted", float64(4))
	requireField(t, raw, "degraded", false)
	if _, ok := raw["parked"]; !ok {
		t.Fatalf("cluster answer carries no \"parked\" field: %v", raw)
	}

	tight, err := NewCluster(clustree.DefaultConfig(2), 2,
		Config{NodesPerSecond: 0.001}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tight.admit = newTokenBucket(0.001, 1)
	ts := httptest.NewServer(tight.Handler())
	postJSON(t, ts, "/cluster", `{"x":[0.3,0.7],"budget":4}`) // drains the single token
	raw = postJSON(t, ts, "/cluster", `{"x":[0.4,0.6],"budget":4}`)
	requireField(t, raw, "granted", float64(0))
	requireField(t, raw, "degraded", true)
}

// postJSON POSTs body to path and decodes the 200 answer into a raw
// map, so assertions see the wire field names rather than Go structs.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) map[string]any {
	t.Helper()
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	return raw
}

// requireField asserts a decoded wire answer carries key with value.
func requireField(t *testing.T, raw map[string]any, key string, want any) {
	t.Helper()
	got, ok := raw[key]
	if !ok {
		t.Fatalf("answer carries no %q field: %v", key, raw)
	}
	if got != want {
		t.Fatalf("%q = %v, want %v", key, got, want)
	}
}
