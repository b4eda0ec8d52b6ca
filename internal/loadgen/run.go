// Package loadgen is the closed-loop/open-loop load harness: it drives
// mixed insert/classify/ingest HTTP traffic against a live serveclass
// or servecluster instance under a chosen arrival process (Poisson,
// bursty on/off, diurnal ramp, adversarial hot-key, or fixed-
// concurrency closed loop), records per-request latency in a lock-free
// sharded HDR-style histogram (p50/p90/p99/p999, max), and scores
// answer quality against load: the granted-budget fraction, the
// degraded-answer fraction, and classification accuracy and log-loss on
// a labelled holdout replayed through /classify. SLO objectives turn a
// run into a pass/fail — the regression gate behind every future perf
// claim.
//
// The paper's premise is that an anytime system under overload keeps
// latency bounded and degrades answer granularity instead; this
// package is how that claim is measured rather than asserted.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bayestree/internal/stats"
	"bayestree/internal/wire"
)

// This file is the driver: it turns a Scenario into HTTP traffic
// against a live server and folds every response into latency
// histograms and quality counters. Two modes:
//
//   - Open loop (Scenario.Proc set): a single scheduler thread draws
//     interarrival gaps from the process and stamps each request with
//     its scheduled arrival time; latency is measured from that stamp,
//     not from when a goroutine got around to sending — so queueing
//     delay (including the in-flight cap) is charged to the server,
//     the coordinated-omission-resistant convention.
//   - Closed loop (Proc nil): Concurrency workers issue requests back
//     to back; latency is the plain request round trip.
//
// Either way the server is expected to degrade, never error: every
// non-2xx answer and transport failure counts into ErrorRate, which an
// SLO can gate to zero.

// DefaultMaxInFlight caps concurrent open-loop requests when the
// scenario does not say: enough to expose real queueing, bounded so an
// overloaded target cannot eat the harness's file descriptors.
const DefaultMaxInFlight = 256

// DefaultHoldout is the labelled holdout size when the scenario does
// not say.
const DefaultHoldout = 512

// DefaultWarmup is how many observations seed the model before the
// measured phase when the scenario does not say. A classification
// server cannot answer over zero observations, and quality-vs-load on
// a three-point model would measure noise.
const DefaultWarmup = 600

// Scenario is one load-harness run.
type Scenario struct {
	// Target is the base URL of the server under load.
	Target string
	// Workload selects classification or clustering traffic.
	Workload Workload
	// Proc is the open-loop arrival process; nil runs closed-loop.
	Proc Process
	// Concurrency is the closed-loop worker count, and in open loop the
	// in-flight cap (0 = 8 workers / DefaultMaxInFlight).
	Concurrency int
	// Duration is the measured phase length.
	Duration time.Duration
	// Mix is the request mix.
	Mix Mix
	// Seed makes the generated traffic reproducible.
	Seed int64
	// HoldoutSize is the labelled holdout size (0 = DefaultHoldout).
	HoldoutSize int
	// Warmup is how many labelled observations to insert before
	// measuring (0 = DefaultWarmup; < 0 skips seeding). In multi-tenant
	// mode it is the total across tenants, floored at 2 per tenant.
	Warmup int
	// Tenants spreads the traffic across that many named tenants via
	// /t/{tenant} paths — the target must be a multi-tenant registry.
	// 0 keeps the legacy single-tenant paths.
	Tenants int
	// TenantSkew is the Zipf exponent of tenant popularity (values <= 1
	// mean DefaultTenantSkew). Higher = hotter head, colder tail.
	TenantSkew float64
	// Client overrides the HTTP client (nil = a tuned default).
	Client *http.Client
}

// withDefaults resolves zero values.
func (sc Scenario) withDefaults() Scenario {
	if sc.Workload == "" {
		sc.Workload = WorkloadClassify
	}
	if sc.Concurrency <= 0 {
		if sc.Proc == nil {
			sc.Concurrency = 8
		} else {
			sc.Concurrency = DefaultMaxInFlight
		}
	}
	if sc.Duration <= 0 {
		sc.Duration = 10 * time.Second
	}
	if sc.HoldoutSize <= 0 {
		sc.HoldoutSize = DefaultHoldout
	}
	if sc.Warmup == 0 {
		sc.Warmup = DefaultWarmup
	}
	if sc.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = sc.Concurrency + 16
		tr.MaxIdleConnsPerHost = sc.Concurrency + 16
		sc.Client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	return sc
}

// ProcessName names the scenario's arrival mode for reports.
func (sc Scenario) ProcessName() string {
	if sc.Proc == nil {
		return "closed"
	}
	return sc.Proc.Name()
}

// counters is the shared quality/throughput accounting of one run.
type counters struct {
	scheduled atomic.Int64 // open loop: requests the process offered
	done      atomic.Int64
	errors    atomic.Int64
	requested atomic.Int64  // sum of requested budgets
	granted   atomic.Int64  // sum of granted budgets
	degraded  atomic.Int64  // answers with granted < requested
	parked    atomic.Int64  // clustering ingests parked short of a leaf
	evaluated atomic.Int64  // holdout classifies answered
	correct   atomic.Int64  // ... with the true label
	logLoss   atomic.Uint64 // float64 bits: their summed −ln p(true label)
}

// probFloor is the probability a log-loss term is clipped at, as
// internal/eval clips it: one answer without mass for the true label
// adds −ln 1e-15 ≈ 34.5, not an infinite mean.
const probFloor = 1e-15

// trueLabelLoss is −ln p(label) under the softmax of res's log scores.
func trueLabelLoss(res *wire.Result, label int) float64 {
	for i, l := range res.Labels {
		if l == label && i < len(res.Scores) {
			p := math.Exp(res.Scores[i] - stats.LogSumExp(res.Scores))
			return -math.Log(max(p, probFloor))
		}
	}
	return -math.Log(probFloor)
}

// addFloat adds v to the float64 whose bits a holds.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// runState is everything one in-flight run shares.
type runState struct {
	sc    Scenario
	hists map[string]*Histogram
	all   *Histogram
	ctr   counters
}

// hist returns the histogram for a request kind.
func (rs *runState) hist(kind string) *Histogram { return rs.hists[kind] }

// send issues one request and folds the answer into the counters; it
// returns only after the response body is fully read, so latency
// covers the complete answer.
func (rs *runState) send(req request) error {
	resp, err := rs.sc.Client.Post(rs.sc.Target+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		rs.ctr.errors.Add(1)
		return err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		rs.ctr.errors.Add(1)
		return fmt.Errorf("loadgen: %s: status %d", req.path, resp.StatusCode)
	}
	if req.kind == KindInsert {
		return nil
	}
	// An ingest ack and a classification share the budget fields the
	// harness scores; fold the ack's into res.
	var res wire.Result
	var ack wire.ClusterResult
	if req.kind == KindIngest {
		err = wire.DecodeLine(body, &ack)
		res.Requested, res.Granted, res.Degraded = ack.Requested, ack.Granted, ack.Degraded
	} else {
		err = wire.DecodeLine(body, &res)
	}
	if err != nil {
		rs.ctr.errors.Add(1)
		return fmt.Errorf("loadgen: %s: bad answer", req.path)
	}
	rs.ctr.requested.Add(int64(res.Requested))
	rs.ctr.granted.Add(int64(res.Granted))
	if res.Degraded {
		rs.ctr.degraded.Add(1)
	}
	if ack.Parked {
		rs.ctr.parked.Add(1)
	}
	if req.wantLabel >= 0 {
		rs.ctr.evaluated.Add(1)
		if res.Label == req.wantLabel {
			rs.ctr.correct.Add(1)
		}
		addFloat(&rs.ctr.logLoss, trueLabelLoss(&res, req.wantLabel))
	}
	return nil
}

// seed inserts sc.Warmup labelled observations (classification) or
// ingests as many objects (clustering) so the measured phase starts on
// a real model. In multi-tenant mode every tenant is seeded round-robin
// with its share of the warmup (at least two observations each), so
// the measured phase never classifies against a tenant that does not
// exist yet — creation stays on the write path.
func (rs *runState) seed(ctx context.Context) error {
	n := rs.sc.Warmup
	if n < 0 {
		return nil
	}
	gen := newGenerator(rs.sc.Workload, Mix{InsertFraction: 1, Budget: rs.sc.Mix.Budget}, nil, nil, rs.sc.Seed^0x5eed, 0, 0)
	if rs.sc.Tenants > 0 {
		per := n / rs.sc.Tenants
		if per < 2 {
			per = 2
		}
		for t := 0; t < rs.sc.Tenants; t++ {
			pre := "/t/" + TenantName(t)
			for i := 0; i < per; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				req := gen.next()
				req.path = pre + req.path
				if err := rs.send(req); err != nil {
					return fmt.Errorf("loadgen: warmup tenant %s insert %d: %w", TenantName(t), i, err)
				}
			}
		}
		rs.ctr = counters{}
		return nil
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		req := gen.next()
		if err := rs.send(req); err != nil {
			return fmt.Errorf("loadgen: warmup insert %d: %w", i, err)
		}
	}
	// Warmup traffic must not bleed into the measured counters.
	rs.ctr = counters{}
	return nil
}

// Run drives one scenario to completion and returns its report. The
// context cancels early (the partial report is still returned with an
// error only if nothing completed).
func Run(ctx context.Context, sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	rs := &runState{
		sc:  sc,
		all: &Histogram{},
		hists: map[string]*Histogram{
			KindClassify: {}, KindInsert: {}, KindIngest: {},
		},
	}
	var holdout *Holdout
	if sc.Workload == WorkloadClassify {
		holdout = NewHoldout(sc.HoldoutSize, sc.Seed)
	}
	if err := rs.seed(ctx); err != nil {
		return nil, err
	}

	var elapsed time.Duration
	if sc.Proc == nil {
		elapsed = rs.runClosed(ctx, holdout)
	} else {
		elapsed = rs.runOpen(ctx, holdout)
	}
	rep := rs.report(elapsed)
	rep.Backends = fetchBackendRequests(sc)
	if rep.Requests == 0 && ctx.Err() != nil {
		return rep, ctx.Err()
	}
	return rep, nil
}

// fetchBackendRequests asks the target's /stats whether it is a
// scatter-gather proxy and, if so, returns requests served per backend.
// Any failure (plain server, no /stats, decode error) returns nil — the
// field is informational, never a run error.
func fetchBackendRequests(sc Scenario) map[string]int64 {
	resp, err := sc.Client.Get(sc.Target + "/stats")
	if err != nil {
		return nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	var st struct {
		Proxy    bool `json:"proxy"`
		Backends []struct {
			URL      string `json:"url"`
			Requests int64  `json:"requests"`
		} `json:"backends"`
	}
	if json.Unmarshal(body, &st) != nil || !st.Proxy || len(st.Backends) == 0 {
		return nil
	}
	out := make(map[string]int64, len(st.Backends))
	for _, b := range st.Backends {
		out[b.URL] = b.Requests
	}
	return out
}

// runClosed is the fixed-concurrency mode: each worker issues requests
// back to back until the deadline.
func (rs *runState) runClosed(ctx context.Context, holdout *Holdout) time.Duration {
	start := time.Now()
	deadline := start.Add(rs.sc.Duration)
	var wg sync.WaitGroup
	for w := 0; w < rs.sc.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := newGenerator(rs.sc.Workload, rs.sc.Mix, holdout, rs.sc.Proc, rs.sc.Seed+int64(w)*7919, rs.sc.Tenants, rs.sc.TenantSkew)
			for time.Now().Before(deadline) && ctx.Err() == nil {
				req := gen.next()
				t0 := time.Now()
				// Errors are already folded into the counters by send.
				rs.send(req)
				rs.record(req.kind, time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// runOpen is the open-loop mode: one scheduler draws gaps from the
// arrival process and stamps scheduled arrival times; workers send and
// measure latency from the stamp. The in-flight cap back-pressures the
// scheduler, but the wait for a slot happens after the stamp — so a
// server slow enough to exhaust the cap sees that delay charged as
// latency, exactly as a queue in front of it would be.
func (rs *runState) runOpen(ctx context.Context, holdout *Holdout) time.Duration {
	start := time.Now()
	deadline := start.Add(rs.sc.Duration)
	gen := newGenerator(rs.sc.Workload, rs.sc.Mix, holdout, rs.sc.Proc, rs.sc.Seed, rs.sc.Tenants, rs.sc.TenantSkew)
	sem := make(chan struct{}, rs.sc.Concurrency)
	var wg sync.WaitGroup
	scheduled := start
	for ctx.Err() == nil {
		gap := rs.sc.Proc.Gap(gen.rng, time.Since(start))
		scheduled = scheduled.Add(gap)
		if scheduled.After(deadline) {
			break
		}
		req := gen.next()
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		rs.ctr.scheduled.Add(1)
		sched := scheduled
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rs.send(req)
			rs.record(req.kind, time.Since(sched))
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// record folds one completed request into the histograms. Failed
// requests (already counted into errors by send) still count toward
// throughput and latency — an error under overload is precisely what
// the harness is here to catch, and hiding its latency would flatter
// the tail.
func (rs *runState) record(kind string, lat time.Duration) {
	rs.ctr.done.Add(1)
	rs.all.Record(lat)
	if h := rs.hist(kind); h != nil {
		h.Record(lat)
	}
}
