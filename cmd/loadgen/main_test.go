package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bayestree/internal/loadgen"
	"bayestree/internal/wire"
)

// TestGeneratedBodiesAreWire taps the traffic between the harness and
// the server -selfserve starts, for both workloads. Every body must
// decode through internal/wire as the request its route takes — a
// finite point of the workload's dimension, the budget the scenario
// asked for, a label the self-served model knows, on a holdout classify
// (every classify of this run) the scores its log-loss is read from —
// and encode back to
// the very bytes that were sent, so nothing the body was built from is
// lost or invented on the way; and the server must answer every one of
// them (the report's error rate is the harness's own decode of the
// answers, through the same package).
func TestGeneratedBodiesAreWire(t *testing.T) {
	const budget = 7
	for _, tc := range []struct {
		kind     string
		workload loadgen.Workload
		dim      int
		paths    []string
	}{
		{"class", loadgen.WorkloadClassify, 3, []string{"/classify", "/insert"}},
		{"cluster", loadgen.WorkloadCluster, 2, []string{"/cluster"}},
	} {
		target, stop, err := startSelfServe(tc.kind, 2, 0, 0, 0)
		if err != nil {
			t.Fatalf("selfserve %s: %v", tc.kind, err)
		}
		var mu sync.Mutex
		seen := map[string]int{}
		tap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				// The harness's look at /stats once the run is over.
				http.NotFound(w, r)
				return
			}
			body, _ := io.ReadAll(r.Body)
			var x []float64
			var again []byte
			var err error
			switch r.URL.Path {
			case "/classify":
				var q wire.ClassifyRequest
				err = wire.DecodeBody(body, &q)
				x, again = q.X, q.AppendJSON(nil)
				if q.Budget != budget || !q.Scores || q.Literal {
					t.Errorf("/classify body %s: budget %d scores %v literal %v, want budget %d with scores", body, q.Budget, q.Scores, q.Literal, budget)
				}
			case "/insert":
				var q wire.InsertRequest
				err = wire.DecodeBody(body, &q)
				x, again = q.X, q.AppendJSON(nil)
				if q.Label < 0 || q.Label > 2 {
					t.Errorf("/insert body %s: label %d is none of the model's", body, q.Label)
				}
			case "/cluster":
				var q wire.ClusterRequest
				err = wire.DecodeBody(body, &q)
				x, again = q.X, q.AppendJSON(nil)
				if q.Budget != budget {
					t.Errorf("/cluster body %s: budget %d, want %d", body, q.Budget, budget)
				}
			default:
				t.Errorf("request to %s", r.URL.Path)
			}
			if err != nil || !bytes.Equal(again, body) || len(x) != tc.dim {
				t.Errorf("%s body %q: decodes to %v (%v) and back to %q", r.URL.Path, body, x, err, again)
			}
			for _, v := range x {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s body %s: non-finite coordinate", r.URL.Path, body)
				}
			}
			mu.Lock()
			seen[r.URL.Path]++
			mu.Unlock()
			resp, err := http.Post(target+r.URL.Path, r.Header.Get("Content-Type"), bytes.NewReader(body))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
		}))
		rep, err := loadgen.Run(context.Background(), loadgen.Scenario{
			Target: tap.URL, Workload: tc.workload, Concurrency: 2, Duration: 300 * time.Millisecond,
			Mix: loadgen.Mix{InsertFraction: 0.3, Budget: budget}, Seed: 1, Warmup: 60, HoldoutSize: 64,
		})
		tap.Close()
		stop()
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if rep.Requests == 0 || rep.Errors != 0 {
			t.Errorf("%s: %d requests, %d errors; want some and none", tc.kind, rep.Requests, rep.Errors)
		}
		for _, p := range tc.paths {
			if seen[p] == 0 {
				t.Errorf("%s: no request reached %s (saw %v)", tc.kind, p, seen)
			}
		}
	}
}
