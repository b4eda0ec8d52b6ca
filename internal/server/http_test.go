package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
)

// startHTTP spins up an httptest server over a pre-filled Server.
func startHTTP(t *testing.T, shards, n int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, _ := newTestServer(t, shards, n, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHTTPSingleClassify(t *testing.T) {
	_, ts := startHTTP(t, 2, 300, Config{})
	body := `{"x":[3.0,-3.0,0.0],"budget":25}`
	resp, err := http.Post(ts.URL+"/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if res.Label != 1 {
		t.Fatalf("label %d, want 1 (blob at (3,-3))", res.Label)
	}
	if res.Granted != 25 || res.Requested != 25 {
		t.Fatalf("budgets %+v, want requested=granted=25", res)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := startHTTP(t, 1, 100, Config{})
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/classify", `{"x":[1.0]}`, http.StatusBadRequest},           // wrong dim
		{"/classify", `not json`, http.StatusBadRequest},              // malformed
		{"/insert", `{"x":[1,2,3],"label":9}`, http.StatusBadRequest}, // unknown label
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %q: status %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/classify")
	if err != nil {
		t.Fatalf("get classify: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /classify: status %d, want 405", resp.StatusCode)
	}
}

// TestMemoryInsertRefusesOverflowingCoordinate: a coordinate whose
// square overflows a cluster feature is refused on every write path,
// not only the logged ones. A memory-only server's /insert answers 400
// and leaves the model as it was, still scoring every class finitely;
// Learn, the forest's Learn and every loader refuse the same point.
func TestMemoryInsertRefusesOverflowingCoordinate(t *testing.T) {
	s, err := NewEmpty(1, core.DefaultConfig(2), []int{0, 1}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(50))
	var pts [][]float64
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		pts = append(pts, x)
		if err := s.Insert(x, i%2); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func() []byte {
		var buf bytes.Buffer
		if err := s.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := snapshot()
	bad := []float64{1e200, 0.5}
	rec := serveRecorded(s.Handler(), "/insert", "application/json", []byte(`{"x":[1e200,0.5],"label":0}`))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("/insert of %v: status %d, want 400: %s", bad, rec.Code, rec.Body)
	}
	if err := s.Learn(bad, 0); err == nil {
		t.Fatalf("Learn accepted %v", bad)
	}
	if !bytes.Equal(snapshot(), before) {
		t.Fatal("a refused insert changed the model")
	}
	res, err := s.Classify([]float64{0.5, 0.5}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range res.Scores {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("class %d scores %v after a refused insert", c, v)
		}
	}
	clf, err := core.NewClassifier([]*core.MultiTree{mustRStar(t, 0, pts[:25]), mustRStar(t, 1, pts[25:])}, core.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Learn(bad, 0); err == nil {
		t.Fatalf("the forest's Learn accepted %v", bad)
	}
	for _, l := range bulkload.All() {
		if _, err := l.Build(append(pts[:25:25], bad), core.DefaultConfig(2), 0); err == nil {
			t.Fatalf("loader %s accepted %v", l.Name(), bad)
		}
	}
}

// mustRStar builds a one-class tree of label over pts.
func mustRStar(t *testing.T, label int, pts [][]float64) *core.MultiTree {
	t.Helper()
	tree, err := core.BuildRStar(core.DefaultConfig(2), label, pts)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestHTTPNDJSONBatch is the acceptance-criterion test: several clients
// concurrently stream NDJSON batches with per-request anytime budgets
// and must each get one in-order response line per request line.
func TestHTTPNDJSONBatch(t *testing.T) {
	_, ts := startHTTP(t, 4, 600, Config{})
	const clients, lines = 6, 150
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var in bytes.Buffer
			labels := make([]int, lines)
			budgets := make([]int, lines)
			for i := 0; i < lines; i++ {
				x, label := genPoint(rng)
				labels[i] = label
				budgets[i] = 1 + rng.Intn(60) // per-request anytime budget
				fmt.Fprintf(&in, `{"x":[%g,%g,%g],"budget":%d}`+"\n", x[0], x[1], x[2], budgets[i])
			}
			resp, err := http.Post(ts.URL+"/classify", "application/x-ndjson", &in)
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			got, correct := 0, 0
			for sc.Scan() {
				var line lineResponse
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					errc <- fmt.Errorf("line %d: %v", got, err)
					return
				}
				if line.Error != "" {
					errc <- fmt.Errorf("line %d: server error %q", got, line.Error)
					return
				}
				if line.Granted != budgets[got] {
					errc <- fmt.Errorf("line %d: granted %d, want %d (admission disabled)", got, line.Granted, budgets[got])
					return
				}
				if line.Label == labels[got] {
					correct++
				}
				got++
			}
			if got != lines {
				errc <- fmt.Errorf("got %d response lines, want %d", got, lines)
				return
			}
			if float64(correct)/lines < 0.9 {
				errc <- fmt.Errorf("accuracy %.2f < 0.9", float64(correct)/lines)
			}
		}(int64(cl + 100))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestHTTPNDJSONBadLines: malformed lines get per-line errors, the
// stream keeps going.
func TestHTTPNDJSONBadLines(t *testing.T) {
	_, ts := startHTTP(t, 1, 100, Config{})
	in := `{"x":[3.0,-3.0,0.0],"budget":5}
garbage
{"x":[0.0,0.0,0.0],"budget":5}
`
	resp, err := http.Post(ts.URL+"/classify?stream=1", "text/plain", strings.NewReader(in))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var lines []lineResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l lineResponse
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("decode: %v", err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 3 {
		t.Fatalf("%d response lines, want 3", len(lines))
	}
	if lines[0].Error != "" || lines[2].Error != "" {
		t.Fatalf("good lines errored: %+v", lines)
	}
	if lines[1].Error == "" {
		t.Fatal("garbage line did not error")
	}
}

func TestHTTPInsertAndStats(t *testing.T) {
	s, ts := startHTTP(t, 2, 50, Config{})
	resp, err := http.Post(ts.URL+"/insert", "application/json",
		strings.NewReader(`{"x":[3.0,-3.0,0.2],"label":1}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	// NDJSON bulk insert.
	bulk := `{"x":[0.1,0.1,0.0],"label":0}
{"x":[6.1,-6.0,0.0],"label":2}
{"x":[1,2],"label":0}
`
	resp, err = http.Post(ts.URL+"/insert", "application/x-ndjson", strings.NewReader(bulk))
	if err != nil {
		t.Fatalf("bulk insert: %v", err)
	}
	sc := bufio.NewScanner(resp.Body)
	acks := 0
	errLines := 0
	for sc.Scan() {
		var ack map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &ack); err != nil {
			t.Fatalf("ack decode: %v", err)
		}
		if ack["error"] != nil {
			errLines++
		}
		acks++
	}
	resp.Body.Close()
	if acks != 3 || errLines != 1 {
		t.Fatalf("bulk: %d acks (%d errors), want 3 acks 1 error", acks, errLines)
	}
	if s.Len() != 53 {
		t.Fatalf("server size %d, want 53", s.Len())
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if st.Observations != 53 || st.Shards != 2 || st.Inserts != 53 {
		t.Fatalf("stats %+v, want 53 observations (all via Insert) over 2 shards", st)
	}

	// The SoA counters' JSON field names are API: serve one query, then
	// pin the wire names and check the server reports the mirror that
	// query built.
	resp, err = http.Post(ts.URL+"/classify", "application/json",
		strings.NewReader(`{"x":[3.0,-3.0,0.2],"budget":10}`))
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var raw map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	for _, key := range []string{"soa_rebuilds", "soa_patches", "soa_invalidations"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats JSON missing wire name %q", key)
		}
	}
	if r, _ := raw["soa_rebuilds"].(float64); r < 1 {
		t.Errorf("soa_rebuilds = %v after a classify, want >= 1", raw["soa_rebuilds"])
	}
}

func TestHTTPDraining(t *testing.T) {
	s, ts := startHTTP(t, 1, 100, Config{})
	resp, _ := http.Get(ts.URL + "/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d before drain", resp.StatusCode)
	}
	s.SetDraining(true)
	// Liveness is unaffected by draining; readiness fails with a
	// Retry-After hint.
	resp, _ = http.Get(ts.URL + "/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d during drain, want 200", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/readyz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d during drain, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("readyz 503 during drain has no Retry-After")
	}
	resp, _ = http.Post(ts.URL+"/classify", "application/json",
		strings.NewReader(`{"x":[0.0,0.0,0.0],"budget":5}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("classify %d during drain, want 503", resp.StatusCode)
	}
}

// TestHTTPStatsReplicationHubWireNames pins the replication-hub
// back-pressure wire names: a durable primary with one attached
// subscriber must report per-subscriber buffer occupancy and the
// lifetime overflow-cut count under stable JSON keys — the surface the
// scatter-gather proxy's prober (and operators) watch.
func TestHTTPStatsReplicationHubWireNames(t *testing.T) {
	s := newDurableClass(t, t.TempDir(), 2)
	defer s.CloseDurability()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub := &replSub{ch: make(chan replFrame, 8)}
	s.dur.hub.attach(sub)
	defer s.dur.hub.detach(sub)
	if err := s.Insert([]float64{3.0, -3.0, 0.2}, 1); err != nil {
		t.Fatalf("insert: %v", err)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var raw map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	for _, key := range []string{"repl_sub_buffered", "repl_overflow_cuts"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats JSON missing wire name %q", key)
		}
	}
	depths, _ := raw["repl_sub_buffered"].([]interface{})
	if len(depths) != 1 {
		t.Fatalf("repl_sub_buffered = %v, want one entry for the attached subscriber", raw["repl_sub_buffered"])
	}
	if d, _ := depths[0].(float64); d != 1 {
		t.Errorf("repl_sub_buffered[0] = %v after one undrained insert, want 1", depths[0])
	}
	if cuts, ok := raw["repl_overflow_cuts"].(float64); !ok || cuts != 0 {
		t.Errorf("repl_overflow_cuts = %v, want 0", raw["repl_overflow_cuts"])
	}
}

// TestHTTPFollowerReadyzBootstrapping pins the follower's pre-bootstrap
// readiness shape: /readyz answers the uniform plain-text 503 with
// Retry-After (as primaries do during recovery), so probers back off
// the same way whatever the reason.
func TestHTTPFollowerReadyzBootstrapping(t *testing.T) {
	f, err := NewFollowerServer(DurabilityOptions{Dir: t.TempDir()}, Config{}, deadURL(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.stopTail()
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-bootstrap readyz %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("pre-bootstrap readyz has no Retry-After")
	}
	if ct := resp.Header.Get("Content-Type"); strings.Contains(ct, "json") {
		t.Fatalf("pre-bootstrap readyz Content-Type %q, want the plain-text shape primaries use", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if got := strings.TrimSpace(string(body)); got != "bootstrapping" {
		t.Fatalf("pre-bootstrap readyz body %q, want \"bootstrapping\"", got)
	}
	// Liveness stays up while readiness is down.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pre-bootstrap healthz %d, want 200", resp2.StatusCode)
	}
}
