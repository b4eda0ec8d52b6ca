package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/replica"
)

// surface is what the shared-surface table drives: the lifecycle and
// HTTP methods both workloads get from the engine.
type surface interface {
	Handler() http.Handler
	Recover() error
	Checkpoint() error
	Promote() error
	CloseDurability() error
	SetDraining(bool)
	Epoch() uint64
	Generation() uint64
	Len() int
	fenceSelf(epoch uint64)
	role() *replState
}

// surfaceWorkloads is the {classify, cluster} table: how to open a
// durable two-dimensional server of each, and its write route.
var surfaceWorkloads = []struct {
	name      string
	writePath string
	body      string
	open      func(dir string) (surface, error)
}{
	{replica.WorkloadClassify, "/insert", `{"x":[0.25,0.5],"label":1}`, func(dir string) (surface, error) {
		return OpenDurableServer(DurabilityOptions{Dir: dir}, Config{}, func() (*Server, error) {
			return NewEmpty(2, core.DefaultConfig(2), []int{0, 1}, core.MultiOptions{}, Config{})
		})
	}},
	{replica.WorkloadCluster, "/cluster", `{"x":[0.25,0.5]}`, func(dir string) (surface, error) {
		return OpenDurableCluster(DurabilityOptions{Dir: dir}, Config{}, func() (*ClusterServer, error) {
			return NewCluster(clustree.DefaultConfig(2), 2, Config{}, ClusterOptions{})
		})
	}},
}

// do runs one request against h and returns the recorded response.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// TestSharedSurface asserts that everything the engine owns answers
// identically for both workloads: the GET-only routes, liveness and
// readiness in every state, the order of the write guard, the workload
// name on the replication wire, the status of a write that fails after
// the guard, and the checkpoint → promote → reopen round trip.
func TestSharedSurface(t *testing.T) {
	for _, wl := range surfaceWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := wl.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			write := func(method string) *httptest.ResponseRecorder { return do(h, method, wl.writePath, wl.body) }
			notReady := func(state string) {
				t.Helper()
				if rec := do(h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
					t.Fatalf("/healthz while %s: %d, want 200", state, rec.Code)
				}
				rec := do(h, "GET", "/readyz", "")
				if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
					t.Fatalf("/readyz while %s: %d (Retry-After %q), want 503 with Retry-After", state, rec.Code, rec.Header().Get("Retry-After"))
				}
			}

			for _, path := range []string{"/stats", "/replicate"} {
				if rec := do(h, "POST", path, ""); rec.Code != http.StatusMethodNotAllowed {
					t.Fatalf("POST %s: %d, want 405", path, rec.Code)
				}
			}

			// Every refusing state at once, peeled off in guard order. The
			// server is recovering from the open until Recover.
			notReady("recovering")
			s.role().setFollower("http://primary.example")
			s.fenceSelf(7)
			s.SetDraining(true)
			if rec := write("GET"); rec.Code != http.StatusMethodNotAllowed {
				t.Fatalf("GET %s: %d, want 405", wl.writePath, rec.Code)
			}
			if rec := write("POST"); rec.Code != http.StatusTemporaryRedirect || rec.Header().Get("Location") != "http://primary.example"+wl.writePath {
				t.Fatalf("follower write: %d Location %q, want 307 to the primary", rec.Code, rec.Header().Get("Location"))
			}
			s.role().follower.Store(false)
			if rec := write("POST"); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "fenced") {
				t.Fatalf("fenced write: %d %s, want 503 fenced", rec.Code, rec.Body)
			}
			s.role().fenced.Store(false)
			if rec := write("POST"); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "recovering") || rec.Header().Get("Retry-After") == "" {
				t.Fatalf("recovering write: %d %s, want 503 recovering with Retry-After", rec.Code, rec.Body)
			}
			if err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			notReady("draining")
			if rec := write("POST"); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
				t.Fatalf("draining write: %d %s, want 503 draining", rec.Code, rec.Body)
			}
			s.SetDraining(false)
			if rec := do(h, "GET", "/readyz", ""); rec.Code != http.StatusOK {
				t.Fatalf("/readyz when serving: %d, want 200", rec.Code)
			}
			if rec := write("POST"); rec.Code != http.StatusOK {
				t.Fatalf("write when serving: %d %s, want 200", rec.Code, rec.Body)
			}

			// The replication header names the workload.
			ts := httptest.NewServer(h)
			resp, err := http.Get(ts.URL + "/replicate")
			if err != nil {
				t.Fatal(err)
			}
			line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
			resp.Body.Close()
			ts.Close()
			var hdr replica.Header
			if err != nil || json.Unmarshal(line, &hdr) != nil || hdr.Workload != wl.name {
				t.Fatalf("/replicate header %q (err %v), want workload %q", line, err, wl.name)
			}

			// Checkpoint → Promote → reopen round-trips generation, epoch
			// and the acknowledged write.
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			gen := s.Generation()
			if err := s.Promote(); err != nil {
				t.Fatal(err)
			}
			if s.Epoch() != 1 || s.Generation() != gen+1 {
				t.Fatalf("after promote: epoch %d generation %d, want 1 and %d", s.Epoch(), s.Generation(), gen+1)
			}
			if err := s.CloseDurability(); err != nil {
				t.Fatal(err)
			}

			// A write the log refuses after the guard passed is the server's
			// failure, not the client's: never 400.
			if rec := write("POST"); rec.Code != http.StatusInternalServerError {
				t.Fatalf("write after CloseDurability: %d %s, want 500", rec.Code, rec.Body)
			}

			re, err := wl.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.CloseDurability()
			if err := re.Recover(); err != nil {
				t.Fatal(err)
			}
			if re.Epoch() != 1 || re.Generation() != gen+1 || re.Len() != 1 {
				t.Fatalf("reopened: epoch %d generation %d len %d, want 1, %d and 1", re.Epoch(), re.Generation(), re.Len(), gen+1)
			}
		})
	}
}
