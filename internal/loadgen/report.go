package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// This file shapes what a run measured: per-kind latency percentiles,
// achieved vs offered throughput, and the quality-under-load block —
// the granted-budget fraction, the degraded-answer fraction and the
// holdout accuracy and log-loss that together are the paper's
// "degrade, never error" story as numbers. SLO turns a report into a
// pass/fail, the regression gate CI runs.

// Quality is the answer-quality-under-load block of a report.
type Quality struct {
	// RequestedBudget and GrantedBudget are summed per-request budgets;
	// GrantedFraction is their ratio — 1.0 when admission never clipped,
	// falling toward 0 as overload coarsens answers.
	RequestedBudget int64   `json:"requested_budget"`
	GrantedBudget   int64   `json:"granted_budget"`
	GrantedFraction float64 `json:"granted_fraction"`
	// Degraded counts answers whose granted budget fell short of the
	// request; DegradedFraction is per answered request.
	Degraded         int64   `json:"degraded"`
	DegradedFraction float64 `json:"degraded_fraction"`
	// Parked counts clustering ingests buffered short of leaf level —
	// the clustering workload's degradation observable.
	Parked         int64   `json:"parked"`
	ParkedFraction float64 `json:"parked_fraction"`
	// Evaluated and Correct score holdout classifies against ground
	// truth; Accuracy is their ratio and LogLoss the mean over the same
	// answers of −ln p(true label), p the softmax of the answer's log
	// scores clipped at 1e-15 (both 0 when nothing was evaluated).
	Evaluated int64   `json:"evaluated"`
	Correct   int64   `json:"correct"`
	Accuracy  float64 `json:"accuracy"`
	LogLoss   float64 `json:"log_loss"`
}

// Report is the result of one scenario run.
type Report struct {
	// Workload and Process identify what ran.
	Workload string `json:"workload"`
	Process  string `json:"process"`
	// Closed marks the fixed-concurrency mode.
	Closed bool `json:"closed"`
	// Concurrency is the worker count (closed) or in-flight cap (open).
	Concurrency int `json:"concurrency"`
	// Seed reproduces the traffic.
	Seed int64 `json:"seed"`
	// DurationSeconds is the measured wall time.
	DurationSeconds float64 `json:"duration_seconds"`
	// Offered is the arrival process's scheduled request rate (open loop
	// only; equals Achieved in closed loop).
	OfferedRPS float64 `json:"offered_rps"`
	// AchievedRPS is completed requests per second of wall time.
	AchievedRPS float64 `json:"achieved_rps"`
	// Requests and Errors count completed requests and failures
	// (transport errors plus non-200 answers) among them.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// ErrorRate is Errors / Requests.
	ErrorRate float64 `json:"error_rate"`
	// Latency holds one percentile snapshot per request kind that
	// occurred, plus "all" across kinds.
	Latency map[string]Snapshot `json:"latency"`
	// Quality is the answer-quality block.
	Quality Quality `json:"quality"`
	// Backends maps backend URL to requests served, when the target is a
	// scatter-gather proxy (read from its /stats after the measured
	// phase) — how the load actually spread across the replica set.
	Backends map[string]int64 `json:"backend_requests,omitempty"`
	// Breaches lists violated SLO clauses (filled by SLO.Evaluate).
	Breaches []string `json:"breaches,omitempty"`
}

// ratio divides guarding zero denominators.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// report folds the run state into a Report.
func (rs *runState) report(elapsed time.Duration) *Report {
	done := rs.ctr.done.Load()
	errs := rs.ctr.errors.Load()
	rep := &Report{
		Workload:        string(rs.sc.Workload),
		Process:         rs.sc.ProcessName(),
		Closed:          rs.sc.Proc == nil,
		Concurrency:     rs.sc.Concurrency,
		Seed:            rs.sc.Seed,
		DurationSeconds: elapsed.Seconds(),
		Requests:        done,
		Errors:          errs,
		ErrorRate:       ratio(errs, done),
		Latency:         map[string]Snapshot{"all": rs.all.Snapshot()},
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(done) / elapsed.Seconds()
		if sched := rs.ctr.scheduled.Load(); sched > 0 {
			rep.OfferedRPS = float64(sched) / elapsed.Seconds()
		} else {
			rep.OfferedRPS = rep.AchievedRPS
		}
	}
	for kind, h := range rs.hists {
		if h.Count() > 0 {
			rep.Latency[kind] = h.Snapshot()
		}
	}
	q := &rep.Quality
	q.RequestedBudget = rs.ctr.requested.Load()
	q.GrantedBudget = rs.ctr.granted.Load()
	q.GrantedFraction = ratio(q.GrantedBudget, q.RequestedBudget)
	q.Degraded = rs.ctr.degraded.Load()
	q.Parked = rs.ctr.parked.Load()
	answered := done - errs
	q.DegradedFraction = ratio(q.Degraded, answered)
	q.ParkedFraction = ratio(q.Parked, answered)
	q.Evaluated = rs.ctr.evaluated.Load()
	q.Correct = rs.ctr.correct.Load()
	q.Accuracy = ratio(q.Correct, q.Evaluated)
	if q.Evaluated > 0 {
		q.LogLoss = math.Float64frombits(rs.ctr.logLoss.Load()) / float64(q.Evaluated)
	}
	return rep
}

// WriteJSON writes the report as one indented JSON document.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteNDJSON writes the report as newline-delimited cells — one
// compact line per (kind, snapshot) plus one quality/summary line —
// the append-friendly form for trend files that accumulate across
// runs.
func (r *Report) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	kinds := make([]string, 0, len(r.Latency))
	for kind := range r.Latency {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		snap := r.Latency[kind]
		if err := enc.Encode(struct {
			Row      string `json:"row"`
			Workload string `json:"workload"`
			Process  string `json:"process"`
			Kind     string `json:"kind"`
			Snapshot
		}{"latency", r.Workload, r.Process, kind, snap}); err != nil {
			return err
		}
	}
	return enc.Encode(struct {
		Row string `json:"row"`
		*Report
	}{"summary", r})
}

// SLO is a set of latency/quality objectives evaluated against a
// report. Zero-valued clauses are not checked, so a caller states only
// what it gates on.
type SLO struct {
	// P50, P99, P999 and Max bound the "all" latency percentiles.
	P50, P99, P999, Max time.Duration
	// MaxErrorRate bounds Report.ErrorRate ("degrade, never error" is
	// MaxErrorRate 0 — but note a zero value means unchecked, so use a
	// tiny epsilon to assert zero errors).
	MaxErrorRate float64
	// MinAccuracy bounds holdout accuracy from below.
	MinAccuracy float64
	// MinGrantedFraction bounds the granted-budget fraction from below.
	MinGrantedFraction float64
	// MinRequests guards against vacuous passes: a run that completed
	// fewer requests breaches.
	MinRequests int64
}

// Evaluate checks every stated clause, returning the violated ones in
// human-readable form (empty = pass) and recording them on the report.
func (s SLO) Evaluate(r *Report) []string {
	var breaches []string
	all := r.Latency["all"]
	check := func(name string, bound time.Duration, gotMs float64) {
		if bound > 0 && gotMs > millis(bound) {
			breaches = append(breaches, fmt.Sprintf("%s %.2fms > %.2fms", name, gotMs, millis(bound)))
		}
	}
	check("p50", s.P50, all.P50Ms)
	check("p99", s.P99, all.P99Ms)
	check("p999", s.P999, all.P999Ms)
	check("max", s.Max, all.MaxMs)
	if s.MaxErrorRate > 0 && r.ErrorRate > s.MaxErrorRate {
		breaches = append(breaches, fmt.Sprintf("error_rate %.4f > %.4f", r.ErrorRate, s.MaxErrorRate))
	}
	if s.MinAccuracy > 0 && r.Quality.Accuracy < s.MinAccuracy {
		breaches = append(breaches, fmt.Sprintf("accuracy %.4f < %.4f", r.Quality.Accuracy, s.MinAccuracy))
	}
	if s.MinGrantedFraction > 0 && r.Quality.GrantedFraction < s.MinGrantedFraction {
		breaches = append(breaches, fmt.Sprintf("granted_fraction %.4f < %.4f", r.Quality.GrantedFraction, s.MinGrantedFraction))
	}
	if s.MinRequests > 0 && r.Requests < s.MinRequests {
		breaches = append(breaches, fmt.Sprintf("requests %d < %d", r.Requests, s.MinRequests))
	}
	r.Breaches = breaches
	return breaches
}
