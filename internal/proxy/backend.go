package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bayestree/internal/replica"
	"bayestree/internal/server"
)

// backend is one upstream process: its base URL, a dedicated pooled
// transport (so one slow backend cannot starve another's connection
// pool), request counters, and the last probe's view of it.
type backend struct {
	url    string
	client *http.Client

	requests  atomic.Int64
	errors    atomic.Int64
	redirects atomic.Int64

	mu sync.Mutex
	st probeState
}

// probeState is what the last /stats probe learned.
type probeState struct {
	ok           bool
	role         string
	epoch        uint64
	fenced       bool
	recovering   bool
	draining     bool
	stalenessMs  int64
	appliedLSN   uint64
	observations int
	weight       float64
	hubBuffered  int
	decays       bool
}

// maxProbeBody is the longest /stats body the prober accepts; a longer
// one fails the probe rather than being cut to a prefix that may parse.
const maxProbeBody = 1 << 20

// newBackend builds a backend with its own pooled transport. The
// client chases redirects (a follower's 307 to its primary, method and
// body preserved) up to a small bound, counting them.
func newBackend(url string) *backend {
	b := &backend{url: url}
	b.client = &http.Client{
		Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   2 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			if len(via) >= 3 {
				return fmt.Errorf("proxy: redirect chain exceeded 3 hops")
			}
			b.redirects.Add(1)
			return nil
		},
	}
	return b
}

// state returns the last probe's view.
func (b *backend) state() probeState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st
}

func (b *backend) setState(st probeState) {
	b.mu.Lock()
	b.st = st
	b.mu.Unlock()
}

// group is one primary/replica group plus the read round-robin cursor.
type group struct {
	index    int
	backends []*backend
	rr       atomic.Uint64
}

// anyHealthy reports whether any backend answered its last probe.
func (g *group) anyHealthy() bool {
	for _, b := range g.backends {
		if b.state().ok {
			return true
		}
	}
	return false
}

// primary returns the group's routable primary: probed ok, reporting
// role primary, not fenced/recovering/draining; the highest epoch wins
// when a stale ex-primary is still answering.
func (g *group) primary() *backend {
	var best *backend
	var bestEpoch uint64
	for _, b := range g.backends {
		st := b.state()
		if st.ok && st.role == "primary" && !st.fenced && !st.recovering && !st.draining {
			if best == nil || st.epoch > bestEpoch {
				best, bestEpoch = b, st.epoch
			}
		}
	}
	return best
}

// observations is the group's probed observation count (primary's view
// preferred; any healthy backend's otherwise) — the size the budget
// split weighs this group by.
func (g *group) observations() int {
	if b := g.primary(); b != nil {
		return b.state().observations
	}
	for _, b := range g.backends {
		if st := b.state(); st.ok {
			return st.observations
		}
	}
	return 0
}

// decays reports whether any backend of g answered its last probe with
// decay enabled.
func (g *group) decays() bool {
	for _, b := range g.backends {
		if st := b.state(); st.ok && st.decays {
			return true
		}
	}
	return false
}

// readTargets plans one read: fresh followers (probed ok, staleness
// within maxStale) ordered least-stale-first with the head rotated
// round-robin so load spreads, and the primary appended as the
// degrade-never-error fallback. viaPrimary reports that no fresh
// follower existed and the read will hit the primary directly.
func (g *group) readTargets(maxStale time.Duration) (targets []*backend, viaPrimary bool) {
	type cand struct {
		b     *backend
		stale int64
	}
	var fresh []cand
	for _, b := range g.backends {
		st := b.state()
		if st.ok && st.role == "follower" && !st.recovering && !st.draining &&
			st.stalenessMs >= 0 && st.stalenessMs <= maxStale.Milliseconds() {
			fresh = append(fresh, cand{b, st.stalenessMs})
		}
	}
	pb := g.primary()
	if len(fresh) == 0 {
		if pb != nil {
			return []*backend{pb}, true
		}
		// Cold start: nothing probed yet — try everything, seed first.
		return g.backends, true
	}
	sort.SliceStable(fresh, func(i, j int) bool { return fresh[i].stale < fresh[j].stale })
	head := int(g.rr.Add(1)-1) % len(fresh)
	targets = append(targets, fresh[head].b)
	for i, c := range fresh {
		if i != head {
			targets = append(targets, c.b)
		}
	}
	if pb != nil {
		targets = append(targets, pb)
	}
	return targets, false
}

// ---------------------------------------------------------------------
// Prober

// ProbeNow sweeps every group synchronously: each backend's /stats is
// fetched in parallel, then stale unfenced primaries are told about the
// newest epoch so they fence themselves (the proxy as fencing
// messenger — a dead primary that comes back learns it lost the moment
// the prober sees it).
func (p *Proxy) ProbeNow() {
	var wg sync.WaitGroup
	for _, g := range p.groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			p.probeGroup(g)
		}(g)
	}
	wg.Wait()
}

// probeGroup probes all of g's backends and runs the fencing assist.
func (p *Proxy) probeGroup(g *group) {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			p.probeBackend(b)
		}(b)
	}
	wg.Wait()
	p.fenceStale(g)
}

// probeTimeout bounds one probe exchange: the probe period, within
// [100ms, 2s].
func (p *Proxy) probeTimeout() time.Duration {
	return min(max(p.cfg.ProbeEvery, 100*time.Millisecond), 2*time.Second)
}

func (p *Proxy) probeBackend(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), p.probeTimeout())
	defer cancel()
	status, data, err := b.probeFetch(ctx)
	var st probeState
	var bs server.Stats
	// The observation count sizes the budget split, so a count it cannot
	// hold fails the probe: a negative one would be sent on as a negative
	// literal budget, which the backend caps up to MaxBudget, and one past
	// this bound overflows the split's product with a budget of at most
	// MaxBudget, or the sum over the groups.
	if err == nil && status == http.StatusOK && json.Unmarshal(data, &bs) == nil &&
		bs.Observations >= 0 && bs.Observations <= math.MaxInt/p.cfg.MaxBudget/len(p.groups) {
		st = probeState{
			ok: true, role: bs.Role, epoch: bs.Epoch, fenced: bs.Fenced,
			recovering: bs.Recovering, draining: bs.Draining, stalenessMs: bs.StalenessMs,
			appliedLSN: bs.AppliedLSN, observations: bs.Observations, weight: bs.Weight,
			decays: bs.DecayEnabled,
		}
		for _, d := range bs.ReplSubBuffered {
			st.hubBuffered = max(st.hubBuffered, d)
		}
	}
	b.setState(st)
}

// fenceStale is the prober's fencing assist: when a group shows more
// than one live unfenced primary (a restarted ex-primary racing the
// promoted replica), every lower-epoch one is probed with the max
// epoch via the replication fencing header so it durably fences
// itself, then re-probed to pick the fenced state up.
func (p *Proxy) fenceStale(g *group) {
	var maxEpoch uint64
	count := 0
	for _, b := range g.backends {
		if st := b.state(); st.ok && st.role == "primary" && !st.fenced {
			count++
			if st.epoch > maxEpoch {
				maxEpoch = st.epoch
			}
		}
	}
	if count < 2 {
		return
	}
	for _, b := range g.backends {
		if st := b.state(); st.ok && st.role == "primary" && !st.fenced && st.epoch < maxEpoch {
			ctx, cancel := context.WithTimeout(context.Background(), p.probeTimeout())
			replica.FenceProbe(ctx, b.client, b.url, maxEpoch)
			cancel()
			p.probeBackend(b)
		}
	}
}

// probeFetch is a /stats exchange outside the request counters, so the
// routing counts /stats reports measure routed traffic, not probes.
func (b *backend) probeFetch(ctx context.Context) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/stats", nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxProbeBody+1))
	if err != nil {
		return 0, nil, err
	}
	if len(data) > maxProbeBody {
		return 0, nil, fmt.Errorf("proxy: /stats body over %d bytes", maxProbeBody)
	}
	return resp.StatusCode, data, nil
}
