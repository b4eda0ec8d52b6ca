package loadgen

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/server"
)

// End-to-end harness tests: every arrival process plus the closed loop
// drives a real in-process classification server and a real clustering
// server over HTTP — the acceptance shape of the harness. Runs are
// short (a few hundred ms each) but complete: warmup, measured phase,
// report.

// startClassServer boots a classification server behind httptest and
// returns its base URL.
func startClassServer(t *testing.T) string {
	t.Helper()
	s, err := server.NewEmpty(2, core.DefaultConfig(classDim), []int{0, 1, 2}, core.MultiOptions{}, server.Config{})
	if err != nil {
		t.Fatalf("NewEmpty: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// startClusterServer boots a clustering server behind httptest and
// returns its base URL.
func startClusterServer(t *testing.T) string {
	t.Helper()
	s, err := server.NewCluster(clustree.DefaultConfig(clusterDim), 2, server.Config{}, server.ClusterOptions{})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// shortScenario is a fast-but-real scenario against url.
func shortScenario(url string, wl Workload, proc Process) Scenario {
	return Scenario{
		Target:      url,
		Workload:    wl,
		Proc:        proc,
		Duration:    400 * time.Millisecond,
		Mix:         Mix{InsertFraction: 0.2, Budget: 16},
		Seed:        1,
		HoldoutSize: 64,
		Warmup:      200,
	}
}

// TestRunAllProcessesClassify drives the classification server with
// every arrival process and the closed loop: requests complete, nothing
// errors, and holdout accuracy on the warmed-up three-blob model is
// high.
func TestRunAllProcessesClassify(t *testing.T) {
	url := startClassServer(t)
	for _, name := range ProcessNames {
		t.Run(name, func(t *testing.T) {
			proc, err := NewProcess(name, 400)
			if err != nil {
				t.Fatalf("NewProcess: %v", err)
			}
			rep, err := Run(context.Background(), shortScenario(url, WorkloadClassify, proc))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Process != name {
				t.Fatalf("report process = %q, want %q", rep.Process, name)
			}
			if rep.Requests == 0 {
				t.Fatal("no requests completed")
			}
			if rep.Errors != 0 {
				t.Fatalf("%d errors (rate %.4f) — the server must degrade, never error", rep.Errors, rep.ErrorRate)
			}
			if rep.Latency["all"].Count != uint64(rep.Requests) {
				t.Fatalf("latency count %d != requests %d", rep.Latency["all"].Count, rep.Requests)
			}
			if rep.Quality.Evaluated == 0 {
				t.Fatal("no holdout classifies evaluated")
			}
			if rep.Quality.Accuracy < 0.8 {
				t.Fatalf("holdout accuracy %.3f < 0.8 on the separated three-blob model", rep.Quality.Accuracy)
			}
			if ll := rep.Quality.LogLoss; !(ll >= 0) || math.IsInf(ll, 0) {
				t.Fatalf("holdout log-loss %v, want finite and non-negative", ll)
			}
			if rep.Quality.RequestedBudget == 0 || rep.Quality.GrantedBudget == 0 {
				t.Fatalf("budgets not tracked: requested=%d granted=%d",
					rep.Quality.RequestedBudget, rep.Quality.GrantedBudget)
			}
		})
	}
}

// TestRunReportsLogLoss: a closed-loop run against a model that learned
// the holdout's distribution under random labels — every answer's
// posterior spread over the classes — reports a finite, positive mean
// log-loss over the answers it scored, short of the clip value one
// answer without the true label's mass would give.
func TestRunReportsLogLoss(t *testing.T) {
	s, err := server.NewEmpty(2, core.DefaultConfig(classDim), []int{0, 1, 2}, core.MultiOptions{}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		x, _ := classPoint(rng)
		if err := s.Insert(x, rng.Intn(3)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	sc := shortScenario(ts.URL, WorkloadClassify, nil)
	sc.Warmup, sc.Mix.InsertFraction = -1, 0
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	q := rep.Quality
	if q.Evaluated == 0 || rep.Errors != 0 {
		t.Fatalf("%d answers scored, %d errors", q.Evaluated, rep.Errors)
	}
	if !(q.LogLoss > 0) || q.LogLoss >= -math.Log(probFloor) {
		t.Fatalf("log-loss %v over %d answers (accuracy %.3f), want in (0, %.1f)", q.LogLoss, q.Evaluated, q.Accuracy, -math.Log(probFloor))
	}
	t.Logf("log-loss %.3f, accuracy %.3f over %d answers", q.LogLoss, q.Accuracy, q.Evaluated)
}

// TestRunAllProcessesCluster drives the clustering server the same way:
// all ingest, budgets tracked, zero errors.
func TestRunAllProcessesCluster(t *testing.T) {
	url := startClusterServer(t)
	for _, name := range ProcessNames {
		t.Run(name, func(t *testing.T) {
			proc, err := NewProcess(name, 400)
			if err != nil {
				t.Fatalf("NewProcess: %v", err)
			}
			rep, err := Run(context.Background(), shortScenario(url, WorkloadCluster, proc))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Requests == 0 {
				t.Fatal("no requests completed")
			}
			if rep.Errors != 0 {
				t.Fatalf("%d errors — the server must degrade, never error", rep.Errors)
			}
			if _, ok := rep.Latency[KindIngest]; !ok {
				t.Fatal("no ingest latency recorded for the clustering workload")
			}
			if rep.Quality.RequestedBudget == 0 {
				t.Fatal("ingest budgets not tracked")
			}
		})
	}
}

// TestRunClosedReportShape pins the closed-loop report fields: closed
// flag, offered == achieved, per-kind latency maps present.
func TestRunClosedReportShape(t *testing.T) {
	url := startClassServer(t)
	rep, err := Run(context.Background(), shortScenario(url, WorkloadClassify, nil))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Closed || rep.Process != "closed" {
		t.Fatalf("closed=%v process=%q, want closed-loop markers", rep.Closed, rep.Process)
	}
	if rep.OfferedRPS != rep.AchievedRPS {
		t.Fatalf("closed loop offered %.1f != achieved %.1f", rep.OfferedRPS, rep.AchievedRPS)
	}
	if _, ok := rep.Latency[KindClassify]; !ok {
		t.Fatal("no classify latency bucket")
	}
	if _, ok := rep.Latency[KindInsert]; !ok {
		t.Fatal("no insert latency bucket (InsertFraction 0.2 over hundreds of requests)")
	}
	if rep.DurationSeconds <= 0 {
		t.Fatal("zero measured duration")
	}
}

// TestRunCancelled: a pre-cancelled context yields an error, not a
// hang or a bogus report.
func TestRunCancelled(t *testing.T) {
	url := startClassServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, shortScenario(url, WorkloadClassify, nil)); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

// TestGeneratorDeterminism: the same seed yields byte-identical request
// streams — what makes a loadgen run reproducible end to end.
func TestGeneratorDeterminism(t *testing.T) {
	h := NewHoldout(32, 9)
	a := newGenerator(WorkloadClassify, Mix{InsertFraction: 0.3, Budget: 8}, h, HotKey{Rate: 100, HotFraction: 0.2}, 21, 50, 1.2)
	b := newGenerator(WorkloadClassify, Mix{InsertFraction: 0.3, Budget: 8}, h, HotKey{Rate: 100, HotFraction: 0.2}, 21, 50, 1.2)
	for i := 0; i < 500; i++ {
		ra, rb := a.next(), b.next()
		if ra.kind != rb.kind || ra.path != rb.path || string(ra.body) != string(rb.body) || ra.wantLabel != rb.wantLabel {
			t.Fatalf("request %d differs across same-seed generators", i)
		}
	}
}

// TestSLOEvaluate pins the gate semantics: zero-valued clauses are
// unchecked, stated clauses breach with readable messages, and breaches
// land on the report.
func TestSLOEvaluate(t *testing.T) {
	rep := &Report{
		Requests:  100,
		ErrorRate: 0.02,
		Latency:   map[string]Snapshot{"all": {P50Ms: 5, P99Ms: 40, P999Ms: 80, MaxMs: 120}},
		Quality:   Quality{Accuracy: 0.9, GrantedFraction: 0.5},
	}
	if br := (SLO{}).Evaluate(rep); len(br) != 0 {
		t.Fatalf("empty SLO breached: %v", br)
	}
	pass := SLO{P99: 50 * time.Millisecond, MaxErrorRate: 0.05, MinAccuracy: 0.8, MinRequests: 10}
	if br := pass.Evaluate(rep); len(br) != 0 {
		t.Fatalf("passing SLO breached: %v", br)
	}
	fail := SLO{
		P50: time.Millisecond, P99: 10 * time.Millisecond, P999: 10 * time.Millisecond,
		Max: 10 * time.Millisecond, MaxErrorRate: 0.01, MinAccuracy: 0.95,
		MinGrantedFraction: 0.9, MinRequests: 1000,
	}
	br := fail.Evaluate(rep)
	if len(br) != 8 {
		t.Fatalf("got %d breaches, want all 8: %v", len(br), br)
	}
	if len(rep.Breaches) != 8 {
		t.Fatalf("breaches not recorded on the report: %v", rep.Breaches)
	}
	for _, want := range []string{"p50", "p99", "p999", "max", "error_rate", "accuracy", "granted_fraction", "requests"} {
		found := false
		for _, b := range br {
			if strings.HasPrefix(b, want+" ") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no breach message for %q in %v", want, br)
		}
	}
}

// TestWriteFormats: the JSON document round-trips, and NDJSON emits one
// latency row per kind plus a summary row.
func TestWriteFormats(t *testing.T) {
	rep := &Report{
		Workload: "classify", Process: "poisson", Requests: 10,
		Latency: map[string]Snapshot{"all": {Count: 10}, KindClassify: {Count: 7}, KindInsert: {Count: 3}},
	}
	var doc strings.Builder
	if err := rep.WriteJSON(&doc); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Report
	if err := json.Unmarshal([]byte(doc.String()), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Requests != 10 || back.Latency["all"].Count != 10 {
		t.Fatalf("round-tripped report lost fields: %+v", back)
	}

	var nd strings.Builder
	if err := rep.WriteNDJSON(&nd); err != nil {
		t.Fatalf("WriteNDJSON: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(nd.String()), "\n")
	if len(lines) != 4 { // 3 latency kinds + 1 summary
		t.Fatalf("NDJSON emitted %d lines, want 4:\n%s", len(lines), nd.String())
	}
	var rows []struct {
		Row string `json:"row"`
	}
	for _, l := range lines {
		var r struct {
			Row string `json:"row"`
		}
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", l, err)
		}
		rows = append(rows, r)
	}
	for _, r := range rows[:3] {
		if r.Row != "latency" {
			t.Fatalf("row = %q, want latency", r.Row)
		}
	}
	if rows[3].Row != "summary" {
		t.Fatalf("last row = %q, want summary", rows[3].Row)
	}
}
