package proxy

import (
	"net/http"
	"time"

	"bayestree/internal/server"
)

// Stats is the proxy's /stats document. The "proxy":true marker lets a
// generic client (the load harness) detect it is talking to the
// scatter-gather tier and read the per-backend routing counts.
type Stats struct {
	Proxy         bool    `json:"proxy"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Groups        int     `json:"groups"`
	Draining      bool    `json:"draining"`
	// Reads and Writes count proxied requests that succeeded end to end;
	// the error counters what the proxy had to fail after exhausting
	// failover and fallback.
	Reads       int64 `json:"reads"`
	ReadErrors  int64 `json:"read_errors"`
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	// WriteRetries counts failover retries (each preceded by a
	// synchronous group re-probe).
	WriteRetries int64 `json:"write_retries"`
	// PrimaryFallbacks counts reads that had no fresh follower and fell
	// back to the primary — the degrade-never-error path taken.
	PrimaryFallbacks int64 `json:"primary_fallbacks"`
	// Backends is the per-backend routing and health view, in group
	// order, primaries first within each group.
	Backends []BackendStats `json:"backends"`
}

// BackendStats is one upstream's routing counts and last-probe view.
type BackendStats struct {
	URL     string `json:"url"`
	Group   int    `json:"group"`
	Healthy bool   `json:"healthy"`
	Role    string `json:"role,omitempty"`
	Epoch   uint64 `json:"epoch"`
	Fenced  bool   `json:"fenced"`
	// StalenessMs mirrors the follower's staleness bound (-1 before its
	// first catch-up; 0 on primaries).
	StalenessMs  int64   `json:"staleness_ms"`
	AppliedLSN   uint64  `json:"applied_lsn"`
	Observations int     `json:"observations"`
	Weight       float64 `json:"weight"`
	// HubBuffered is the deepest replication-hub buffer on this backend
	// (primaries only) — back-pressure toward an overflow cut.
	HubBuffered int `json:"hub_buffered"`
	// Requests counts proxied requests routed here (probes excluded);
	// Errors transport/read failures; Redirects 307s followed from it.
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	Redirects int64 `json:"redirects"`
}

// CurrentStats snapshots the proxy counters and per-backend views.
func (p *Proxy) CurrentStats() Stats {
	st := Stats{
		Proxy:            true,
		UptimeSeconds:    time.Since(p.start).Seconds(),
		Groups:           len(p.groups),
		Draining:         p.draining.Load(),
		Reads:            p.reads.Load(),
		ReadErrors:       p.readErrors.Load(),
		Writes:           p.writes.Load(),
		WriteErrors:      p.writeErrors.Load(),
		WriteRetries:     p.writeRetries.Load(),
		PrimaryFallbacks: p.primaryFallbacks.Load(),
	}
	for _, g := range p.groups {
		for _, b := range g.backends {
			ps := b.state()
			st.Backends = append(st.Backends, BackendStats{
				URL: b.url, Group: g.index, Healthy: ps.ok, Role: ps.role,
				Epoch: ps.epoch, Fenced: ps.fenced, StalenessMs: ps.stalenessMs,
				AppliedLSN: ps.appliedLSN, Observations: ps.observations,
				Weight: ps.weight, HubBuffered: ps.hubBuffered,
				Requests: b.requests.Load(), Errors: b.errors.Load(),
				Redirects: b.redirects.Load(),
			})
		}
	}
	return st
}

func (p *Proxy) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, p.CurrentStats())
}
