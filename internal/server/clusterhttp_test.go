package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newClusterHTTP spins up a test HTTP server over a fresh clustering
// server.
func newClusterHTTP(t *testing.T, cs *ClusterServer) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(cs.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestClusterHTTPEndToEnd is the serving acceptance path: NDJSON bulk
// ingest of a drifting two-source stream through one connection, then
// /macroclusters must report sensible clusters, and /microclusters and
// /stats must be consistent.
func TestClusterHTTPEndToEnd(t *testing.T) {
	cs := newTestCluster(t, 2, 0.001, Config{})
	ts := newClusterHTTP(t, cs)

	rng := rand.New(rand.NewSource(17))
	var in bytes.Buffer
	const n = 1536
	for i := 0; i < n; i++ {
		x := clusterPoint(rng, i%2)
		budget := 8
		if i%5 == 0 {
			budget = 1 // starved lines park
		}
		fmt.Fprintf(&in, `{"x":[%v,%v],"budget":%d}`+"\n", x[0], x[1], budget)
	}
	resp, err := http.Post(ts.URL+"/cluster", "application/x-ndjson", &in)
	if err != nil {
		t.Fatalf("bulk ingest: %v", err)
	}
	defer resp.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ack clusterLineResponse
		if err := json.Unmarshal(sc.Bytes(), &ack); err != nil {
			t.Fatalf("ack line %d: %v", lines, err)
		}
		if ack.Error != "" {
			t.Fatalf("ack line %d: %s", lines, ack.Error)
		}
		lines++
	}
	if lines != n {
		t.Fatalf("%d ack lines for %d request lines", lines, n)
	}

	var stats ClusterStats
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Observations != n || stats.Clock != int64(n) {
		t.Fatalf("stats observations %d clock %d, want %d", stats.Observations, stats.Clock, n)
	}
	if stats.Parked == 0 {
		t.Fatal("no parked insertions despite starved lines")
	}

	var micro struct {
		Count int                `json:"count"`
		MCs   []MicroClusterJSON `json:"micro_clusters"`
	}
	getJSON(t, ts.URL+"/microclusters?minw=0.5", &micro)
	if micro.Count == 0 || len(micro.MCs) != micro.Count {
		t.Fatalf("microclusters count %d with %d entries", micro.Count, len(micro.MCs))
	}

	var macro struct {
		Macros []MacroClusterJSON `json:"macro_clusters"`
		Noise  int                `json:"noise"`
	}
	getJSON(t, ts.URL+"/macroclusters?eps=0.15&minw=5", &macro)
	if len(macro.Macros) != 2 {
		t.Fatalf("%d macro clusters, want the 2 sources", len(macro.Macros))
	}
	found := 0
	for _, want := range [][2]float64{{0.2, 0.25}, {0.8, 0.7}} {
		for _, m := range macro.Macros {
			if math.Hypot(m.Mean[0]-want[0], m.Mean[1]-want[1]) < 0.08 {
				found++
				break
			}
		}
	}
	if found != 2 {
		t.Fatalf("macro means %v do not match the sources", macro.Macros)
	}
}

// getJSON GETs a URL and decodes the JSON body, failing on non-200.
func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestClusterHTTPSingleAndErrors covers the single-object form and the
// endpoint error paths.
func TestClusterHTTPSingleAndErrors(t *testing.T) {
	cs := newTestCluster(t, 2, 0, Config{})
	ts := newClusterHTTP(t, cs)

	resp, err := http.Post(ts.URL+"/cluster", "application/json",
		strings.NewReader(`{"x":[0.4,0.4],"budget":5}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	var res ClusterResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if res.Requested != 5 || res.Granted != 5 {
		t.Fatalf("requested/granted %d/%d, want 5/5", res.Requested, res.Granted)
	}

	for _, tc := range []struct {
		method, path, body string
		status             int
	}{
		{"POST", "/cluster", `{"x":[1],"budget":5}`, http.StatusBadRequest},
		{"POST", "/cluster", `{garbage`, http.StatusBadRequest},
		{"GET", "/cluster", "", http.StatusMethodNotAllowed},
		{"POST", "/microclusters", "", http.StatusMethodNotAllowed},
		{"POST", "/macroclusters", "", http.StatusMethodNotAllowed},
		{"GET", "/macroclusters?eps=bogus", "", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
	}

	// Draining: readiness fails (liveness stays 200), ingest rejected.
	cs.SetDraining(true)
	resp, _ = http.Get(ts.URL + "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(ts.URL + "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Post(ts.URL+"/cluster", "application/json",
		strings.NewReader(`{"x":[0.4,0.4],"budget":5}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cluster while draining: %d", resp.StatusCode)
	}
	resp.Body.Close()
}
