// Package proxy is the scatter-gather serving tier: a stateless L7
// proxy in front of one or more primary/replica groups that makes
// follower fan-out pay without giving up the engine's exactness.
//
// Writes (/insert, /cluster) are consistent-hash-routed on the point's
// shard key to the owning group's primary — the same FNV-64a content
// hash the engine uses across shards (server.RouteShard), so a proxy
// over k single-shard groups partitions the stream exactly as a
// k-shard single process would. A 307 from a backend that turned out
// to be a follower is followed automatically (method and body
// preserved), and a failed or fenced primary triggers a synchronous
// re-probe and bounded retries, so writes fail over to a promoted
// replica without the client noticing.
//
// Reads (/classify, /microclusters, /macroclusters) scatter across
// healthy followers whose staleness bound (staleness_ms from /stats)
// is within the configured window, splitting the node-read budget
// size-proportionally under the in-process contract
// (server.SplitBudget) and merging exactly: the engine's own per-class
// size-weighted log-sum-exp (stats.MergeLogScores) for classify scores,
// CF-additive micro-cluster union in group order for cluster reads (the
// offline macro step runs on the union in the proxy). A union of decaying
// groups is refused with 501 instead: each group fades its summaries on
// its own clock, so they do not add. The proxy imports
// the engine's vocabulary rather than restating it: the classify request
// types and their codec are internal/wire's, the budget rule and the
// JSON / error / 503 response helpers internal/server's. When a group
// has no fresh follower the read
// degrades to its primary rather than erroring — the serving tier's
// degrade-never-error contract extended across processes.
//
// Every backend gets its own pooled http.Transport and request deadlines
// propagate. A group read tries its targets one at a time — the
// least-stale fresh follower, the other fresh followers, the primary —
// and moves on only after a transport error or a 5xx.
package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/server"
	"bayestree/internal/stats"
	"bayestree/internal/wire"
)

// Group names one primary/replica group: the primary's base URL plus
// any number of follower base URLs.
type Group struct {
	// Primary is the group's write endpoint (and read fallback).
	Primary string
	// Replicas are the group's follower read endpoints.
	Replicas []string
}

// Config parameterises a Proxy. Zero values mean the documented
// defaults.
type Config struct {
	// Groups are the primary/replica groups fronted; writes hash across
	// them, reads scatter over all of them. At least one is required.
	Groups []Group
	// DefaultBudget is the classify node budget used when a request
	// sends 0 (default 32, matching the server default).
	DefaultBudget int
	// MaxBudget caps per-request budgets (default
	// server.DefaultMaxBudget).
	MaxBudget int
	// ProbeEvery is the health/staleness probe period (default 250ms).
	ProbeEvery time.Duration
	// MaxStaleness is the follower freshness window: followers whose
	// staleness bound exceeds it are skipped for reads (default 5s).
	MaxStaleness time.Duration
	// ReadTimeout bounds one proxied read end to end (default 10s).
	ReadTimeout time.Duration
	// WriteTimeout bounds one proxied write including failover retries
	// (default 10s).
	WriteTimeout time.Duration
	// WriteRetries is how many times a failed write is retried after a
	// synchronous group re-probe (default 8).
	WriteRetries int
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 32
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = server.DefaultMaxBudget
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 250 * time.Millisecond
	}
	if c.MaxStaleness <= 0 {
		c.MaxStaleness = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.WriteRetries <= 0 {
		c.WriteRetries = 8
	}
	return c
}

// Proxy is the scatter-gather tier. Create with New, arm the prober
// with Start, serve Handler, release with Close.
type Proxy struct {
	cfg    Config
	groups []*group
	start  time.Time

	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup

	reads            atomic.Int64
	readErrors       atomic.Int64
	writes           atomic.Int64
	writeErrors      atomic.Int64
	writeRetries     atomic.Int64
	primaryFallbacks atomic.Int64
}

// New builds a Proxy over cfg. No probing happens until Start; a fresh
// proxy routes writes optimistically to each group's configured
// primary.
func New(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Groups) == 0 {
		return nil, errors.New("proxy: at least one group is required")
	}
	p := &Proxy{
		cfg:   cfg,
		start: time.Now(),
		stop:  make(chan struct{}),
	}
	for gi, gc := range cfg.Groups {
		if strings.TrimSpace(gc.Primary) == "" {
			return nil, fmt.Errorf("proxy: group %d has no primary URL", gi)
		}
		g := &group{index: gi}
		g.backends = append(g.backends, newBackend(gc.Primary))
		for _, r := range gc.Replicas {
			if strings.TrimSpace(r) == "" {
				return nil, fmt.Errorf("proxy: group %d has an empty replica URL", gi)
			}
			g.backends = append(g.backends, newBackend(r))
		}
		p.groups = append(p.groups, g)
	}
	return p, nil
}

// Start runs one synchronous probe sweep and then arms the background
// prober.
func (p *Proxy) Start() {
	p.ProbeNow()
	p.probeWG.Add(1)
	go func() {
		defer p.probeWG.Done()
		t := time.NewTicker(p.cfg.ProbeEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.ProbeNow()
			}
		}
	}()
}

// Close stops the prober and releases per-backend connection pools.
func (p *Proxy) Close() error {
	p.stopOnce.Do(func() { close(p.stop) })
	p.probeWG.Wait()
	for _, g := range p.groups {
		for _, b := range g.backends {
			b.client.CloseIdleConnections()
		}
	}
	return nil
}

// SetDraining flips readiness: a draining proxy answers /readyz with
// 503 so load balancers stop sending it new work, while in-flight
// requests finish.
func (p *Proxy) SetDraining(v bool) { p.draining.Store(v) }

// Handler returns the proxy's HTTP surface: the serving endpoints it
// scatters (/classify, /insert, /cluster, /microclusters,
// /macroclusters) plus /stats, /healthz and /readyz of its own.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", p.serving(p.handleClassify))
	// A write is decoded as the request its backend route takes, so both
	// tiers refuse the same bodies; the proxy needs only its point.
	mux.HandleFunc("/insert", p.serving(func(w http.ResponseWriter, r *http.Request) {
		var req wire.InsertRequest
		p.handleWrite(w, r, &req, &req.X)
	}))
	mux.HandleFunc("/cluster", p.serving(func(w http.ResponseWriter, r *http.Request) {
		var req wire.ClusterRequest
		p.handleWrite(w, r, &req, &req.X)
	}))
	mux.HandleFunc("/microclusters", p.serving(p.handleMicroClusters))
	mux.HandleFunc("/macroclusters", p.serving(p.handleMacroClusters))
	mux.HandleFunc("/stats", p.handleStats)
	server.HandleHealth(mux, p.notReady)
	return mux
}

// notReady is the proxy's reason not to take traffic: it drains, or a
// group has no healthy backend.
func (p *Proxy) notReady() string {
	if p.draining.Load() {
		return "draining"
	}
	for _, g := range p.groups {
		if !g.anyHealthy() {
			return fmt.Sprintf("group %d has no healthy backend", g.index)
		}
	}
	return ""
}

// serving answers 503 in place of h while the proxy drains.
func (p *Proxy) serving(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if p.draining.Load() {
			server.WriteUnavailable(w, "draining")
			return
		}
		h(w, r)
	}
}

// ---------------------------------------------------------------------
// Writes: consistent-hash routing with 307-follow and failover

// handleWrite routes one write: the body is decoded into req, whose
// point — the shard key — point points at.
func (p *Proxy) handleWrite(w http.ResponseWriter, r *http.Request, req wire.Value, point *[]float64) {
	if r.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if server.IsStream(r) {
		server.WriteError(w, http.StatusBadRequest,
			"NDJSON streaming is not proxied; send single JSON requests (the proxy hash-routes each point individually)")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if err := wire.DecodeLine(body, req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(*point) == 0 {
		server.WriteError(w, http.StatusBadRequest, "request has no point x to route on")
		return
	}
	gi := server.RouteShard(*point, len(p.groups))
	status, resp, err := p.routeWrite(r.Context(), p.groups[gi], r.URL.Path, body)
	if err != nil {
		p.writeErrors.Add(1)
		server.WriteUnavailable(w, "group %d: %v", gi, err)
		return
	}
	p.writes.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(resp)
}

// routeWrite sends one write to g's primary, re-probing and retrying on
// failure so a promotion mid-stream is chased instead of surfaced. The
// first attempt goes optimistically to the configured primary when no
// probe has succeeded yet — its 307, if it turned out to be a
// follower, is followed automatically by the backend client.
func (p *Proxy) routeWrite(ctx context.Context, g *group, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.WriteTimeout)
	defer cancel()
	var lastErr error
	for attempt := 0; attempt <= p.cfg.WriteRetries; attempt++ {
		if attempt > 0 {
			p.writeRetries.Add(1)
			p.probeGroup(g)
			select {
			case <-ctx.Done():
				return 0, nil, fmt.Errorf("write deadline: %w (last: %v)", ctx.Err(), lastErr)
			case <-time.After(time.Duration(attempt) * 25 * time.Millisecond):
			}
		}
		b := g.primary()
		if b == nil {
			// Optimistic fallback: the configured primary seed. Covers the
			// cold window before the first probe and relies on 307-follow
			// if the seed is actually a follower.
			b = g.backends[0]
		}
		status, data, err := b.fetch(ctx, http.MethodPost, path, body)
		if err != nil {
			lastErr = err
			continue
		}
		switch status {
		case http.StatusServiceUnavailable, http.StatusConflict, http.StatusTemporaryRedirect:
			// Fenced, recovering, or a redirect loop the client refused to
			// chase further: re-probe and retry against the new topology.
			lastErr = fmt.Errorf("backend %s answered %d: %s", b.url, status, firstLine(data))
			continue
		default:
			return status, data, nil
		}
	}
	return 0, nil, lastErr
}

// firstLine compresses an error body for wrapping.
func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// ---------------------------------------------------------------------
// Reads: scatter, budget split, exact merge

func (p *Proxy) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		server.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if server.IsStream(r) {
		server.WriteError(w, http.StatusBadRequest,
			"NDJSON streaming is not proxied; send single JSON requests")
		return
	}
	// The body a backend takes, decoded into the backend's own type: a
	// client reaches the same request — literal_budget included — at
	// either tier.
	var req wire.ClassifyRequest
	if _, err := server.ReadItem(w, r, nil, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	res, err := p.classify(r.Context(), req)
	if !p.readDone(w, err) {
		return
	}
	if !req.Scores {
		res.Scores, res.Weight, res.Labels = nil, 0, nil
	}
	server.WriteWire(w, http.StatusOK, res)
}

// httpError carries the status a failed read is answered with: a
// backend's client fault (a 400 for a bad point must stay a 400) or 501.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// classify scatters one classification — the engine's classify path
// with groups for shards: the budget is resolved by the engine's rule
// over the proxy's default and cap, split across groups in proportion
// to their observation counts (split), each non-empty group's share is
// read as a literal budget with scores requested, and the group answers
// go through the engine's merge (mergeClassify).
func (p *Proxy) classify(ctx context.Context, req wire.ClassifyRequest) (server.Result, error) {
	requested := server.Config{DefaultBudget: p.cfg.DefaultBudget, MaxBudget: p.cfg.MaxBudget}.ResolveBudget(req)
	sizes, budgets := p.split(requested)
	answers, err := scatter[server.Result](ctx, p, "/classify",
		func(i int) bool { return sizes[i] > 0 },
		func(i int) []byte {
			return wire.ClassifyRequest{X: req.X, Budget: budgets[i], Scores: true, Literal: true}.AppendJSON(nil)
		})
	if err != nil {
		return server.Result{}, err
	}
	return mergeClassify(slices.DeleteFunc(answers, func(a *server.Result) bool { return a == nil }), requested)
}

// split sizes every group by its probed observation count and divides
// requested across the groups in proportion, under the engine's rule
// (server.SplitBudget).
func (p *Proxy) split(requested int) (sizes, budgets []int) {
	sizes = make([]int, len(p.groups))
	total := 0
	for i, g := range p.groups {
		sizes[i] = g.observations()
		total += sizes[i]
	}
	return sizes, server.SplitBudget(requested, sizes, total)
}

// scatter reads path from every group want admits (every group when want
// is nil), one goroutine per group, within ReadTimeout: a POST of body(i)
// when body is set, a GET otherwise. Each group's 200 answer is decoded
// into a T; the answers come back in group order, nil where want said no.
// A failed read or any other status fails the scatter with the first
// error in group order.
func scatter[T any, PT interface {
	*T
	wire.Value
}](ctx context.Context, p *Proxy, path string, want func(int) bool, body func(int) []byte) ([]*T, error) {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.ReadTimeout)
	defer cancel()
	answers := make([]*T, len(p.groups))
	errs := make([]error, len(p.groups))
	var wg sync.WaitGroup
	for i, g := range p.groups {
		if want != nil && !want(i) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			method, b := http.MethodGet, []byte(nil)
			if body != nil {
				method, b = http.MethodPost, body(i)
			}
			status, data, err := p.read(ctx, g, method, path, b)
			if err == nil && status != http.StatusOK {
				err = backendStatusError(status, data)
			}
			if err == nil {
				answers[i] = new(T)
				if err = wire.DecodeLine(data, PT(answers[i])); err != nil {
					err = fmt.Errorf("decode backend answer: %w", err)
				}
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", i, err)
		}
	}
	return answers, nil
}

// read serves one read against g, trying readTargets' order one target
// at a time: the least-stale fresh follower (rotating head), the other
// fresh followers, then the primary. A transport error or a 5xx moves on
// to the next target; any answer below 500 is the group's, returned as
// is. The request context ends the walk.
func (p *Proxy) read(ctx context.Context, g *group, method, path string, body []byte) (int, []byte, error) {
	targets, viaPrimary := g.readTargets(p.cfg.MaxStaleness)
	if viaPrimary {
		p.primaryFallbacks.Add(1)
	}
	var lastErr error
	for _, b := range targets {
		status, data, err := b.fetch(ctx, method, path, body)
		switch {
		case err == nil && status < 500:
			return status, data, nil
		case err == nil:
			lastErr = backendStatusError(status, data)
		case ctx.Err() != nil:
			return 0, nil, err
		default:
			lastErr = err
		}
	}
	return 0, nil, lastErr
}

// backendStatusError maps a backend's non-200 answer into an error that
// preserves client-fault statuses.
func backendStatusError(status int, body []byte) error {
	var e wire.Error
	msg := firstLine(body)
	if wire.DecodeLine(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	if status >= 400 && status < 500 {
		return &httpError{status, msg}
	}
	return fmt.Errorf("backend status %d: %s", status, msg)
}

// mergeClassify combines per-group answers (in group order) through
// stats.MergeLogScores, the function the engine merges its shards with:
// each answer's Scores are the group's merged log scores and Weight its
// total mass, and merging a single part returns it bit for bit, so a
// single-shard group's scores are its shard's raw scores and the proxied
// answer is digit-identical to the in-process one over the same shards
// in the same order.
func mergeClassify(answers []*server.Result, requested int) (server.Result, error) {
	if len(answers) == 0 {
		return server.Result{}, &httpError{http.StatusBadRequest, "server: no observations yet"}
	}
	labels := answers[0].Labels
	parts := make([][]float64, len(answers))
	weights := make([]float64, len(answers))
	totalW := 0.0
	granted, read := 0, 0
	degraded := false
	for i, a := range answers {
		if !slices.Equal(a.Labels, labels) {
			return server.Result{}, fmt.Errorf("merge: label sets differ across groups (%v vs %v)", labels, a.Labels)
		}
		if len(a.Scores) != len(labels) {
			return server.Result{}, fmt.Errorf("merge: %d scores for %d labels", len(a.Scores), len(labels))
		}
		parts[i], weights[i] = a.Scores, a.Weight
		totalW += a.Weight
		granted += a.Granted
		read += a.NodesRead
		degraded = degraded || a.Degraded
	}
	if totalW <= 0 {
		return server.Result{}, &httpError{http.StatusBadRequest, "server: no observations yet"}
	}
	combined := make([]float64, len(labels))
	best := stats.MergeLogScores(combined, parts, weights, totalW)
	return server.Result{
		Label: labels[best], Requested: requested, Granted: granted,
		NodesRead: read, Degraded: degraded || granted < requested,
		Scores: combined, Weight: totalW, Labels: labels,
	}, nil
}

// ---------------------------------------------------------------------
// Cluster reads: CF-additive union

// gatherMicro fans a /microclusters?minw= read across all groups and
// returns the union set in group order — exact, because every group's
// micro-clusters summarise a disjoint partition of the stream, as long
// as they are faded to one "now". Decaying groups fade on clocks of their
// own (each ticks on its own inserts), so a union over more than one
// group is refused with 501 when any of them decays; one group is served
// at any λ, its followers being digit-identical to its primary. The
// backends are sent minw as the number it parsed to, never the client's
// raw text.
func (p *Proxy) gatherMicro(ctx context.Context, minw float64) ([]wire.MicroClusterJSON, error) {
	for _, g := range p.groups {
		if len(p.groups) > 1 && g.decays() {
			return nil, &httpError{http.StatusNotImplemented, fmt.Sprintf(
				"group %d decays (decay_enabled): micro-clusters faded on separate clocks do not add; front decaying cluster groups one per proxy", g.index)}
		}
	}
	path := "/microclusters?minw=" + url.QueryEscape(strconv.FormatFloat(minw, 'g', -1, 64))
	lists, err := scatter[wire.MicroClusterList](ctx, p, path, nil, nil)
	if err != nil {
		return nil, err
	}
	union := []wire.MicroClusterJSON{}
	for _, l := range lists {
		union = append(union, l.MicroClusters...)
	}
	return union, nil
}

// handleMicroClusters parses minw with the backends' own parser, so
// both tiers refuse the same requests, and answers the union under the
// backends' own body type, so a proxied response is byte-identical to a
// single-process one over the same data.
func (p *Proxy) handleMicroClusters(w http.ResponseWriter, r *http.Request) {
	minw, err := server.QueryFloat(r, "minw", 0)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	union, err := p.gatherMicro(r.Context(), minw)
	if p.readDone(w, err) {
		server.WriteWire(w, http.StatusOK, wire.MicroClusterList{Count: len(union), MicroClusters: union})
	}
}

func (p *Proxy) handleMacroClusters(w http.ResponseWriter, r *http.Request) {
	eps, err1 := server.QueryFloat(r, "eps", 0.1)
	minw, err2 := server.QueryFloat(r, "minw", 1)
	for _, err := range []error{err1, err2} {
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	// The offline macro step runs over the union micro-cluster set, so
	// gather every group's full set (minw 0) and cluster locally —
	// exactly what a single process does over its shard union.
	union, err := p.gatherMicro(r.Context(), 0)
	if !p.readDone(w, err) {
		return
	}
	mcs := make([]clustree.MicroCluster, len(union))
	for i, m := range union {
		mcs[i] = clustree.MicroCluster{Weight: m.Weight, Mean: m.Mean, Radius: m.Radius}
	}
	out, noise := server.MacroJSON(mcs, eps, minw)
	server.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"macro_clusters": out, "noise": noise, "eps": eps, "min_weight": minw,
	})
}

// readDone counts one proxied read and reports whether it succeeded; a
// failed one is answered here, with its client-fault or 501 status
// preserved and 503 otherwise.
func (p *Proxy) readDone(w http.ResponseWriter, err error) bool {
	var he *httpError
	switch {
	case err == nil:
		p.reads.Add(1)
		return true
	case errors.As(err, &he):
		server.WriteError(w, he.status, "%s", he.msg)
	default:
		server.WriteUnavailable(w, "%v", err)
	}
	p.readErrors.Add(1)
	return false
}

// fetch runs one fully-read HTTP exchange against the backend's pooled
// client.
func (b *backend) fetch(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.errors.Add(1)
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		b.errors.Add(1)
		return 0, nil, err
	}
	b.requests.Add(1)
	return resp.StatusCode, data, nil
}
