// Package registry is the multi-tenant model registry: thousands of
// named models served from one process, each tenant a full instance of
// the serving engine — its own shards, admission bucket, decay
// maintenance loop, durability directory and replication hub — created
// on first write and addressed by URL path (/t/{tenant}/classify) or
// X-Tenant header. The heavy-traffic premise of the roadmap is many
// small models (per-user, per-sensor, per-topic), not one big one;
// this package is the layer that turns the single-tenant engine into
// that shape.
//
// Resource bounds come from two mechanisms:
//
//   - Quota carving: each tenant's admission bucket is filled at a
//     rate carved from the registry's global node-read budget
//     (NodesPerSecond / MaxResident by default, overridable per
//     tenant), so one hot tenant exhausts its own quota and degrades
//     its own answers while the other tenants' refinement budgets are
//     untouched.
//   - LRU paging: under a configurable resident-model (and optional
//     resident-bytes) cap, the least-recently-used idle tenant is
//     checkpointed — snapshot + WAL truncate, the exact durable-drain
//     path — and evicted from memory. The next request for it blocks
//     on a reload through standard recovery. Because persist
//     round-trips digit-identically, an evicted-then-reloaded tenant
//     answers exactly as its never-evicted twin would; eviction is
//     safe by construction.
//
// On disk a registry root holds a flock'd LOCK, a REGISTRY manifest
// enumerating tenants and their checkpoint generations, and one
// durability subdirectory per tenant under tenants/ — each with its
// own MANIFEST, snapshot, WAL segments and LOCK, exactly the layout a
// single-tenant server uses, so a tenant directory can be inspected
// (or, offline, served) with the existing tools.
package registry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bayestree/internal/persist"
	"bayestree/internal/server"
)

// DefaultMaxResident is the resident-model cap when Options leaves
// MaxResident zero.
const DefaultMaxResident = 64

// DefaultTenantName is the tenant the legacy single-tenant routes
// alias when no X-Tenant header names one.
const DefaultTenantName = "default"

// tenantConfigName is the per-tenant config filename inside a tenant's
// durability directory — written at creation, read at every reload, so
// a tenant keeps its creation-time shape (dim, labels, shards, decay)
// across paging and process restarts.
const tenantConfigName = "TENANT.json"

// tenantsSubdir is the directory under the registry root that holds
// one durability subdirectory per tenant.
const tenantsSubdir = "tenants"

// TenantConfig is a tenant's creation-time shape. The zero value of
// any field means "use the registry default" (Options.Defaults); the
// resolved config is persisted as TENANT.json in the tenant's
// directory so reloads and restarts reproduce it.
type TenantConfig struct {
	// Dim is the observation dimensionality.
	Dim int `json:"dim,omitempty"`
	// Labels is the class-label set (classification workload only).
	Labels []int `json:"labels,omitempty"`
	// Shards is the intra-tenant shard count. Tenants default to one
	// shard: with thousands of small models per process, parallelism
	// comes from tenant fan-out, not intra-model sharding.
	Shards int `json:"shards,omitempty"`
	// NodesPerSecond overrides the tenant's carved admission quota;
	// 0 carves NodesPerSecond/MaxResident from the registry's global
	// budget.
	NodesPerSecond float64 `json:"nodes_per_second,omitempty"`
	// DefaultBudget and MaxBudget mirror server.Config.
	DefaultBudget int `json:"default_budget,omitempty"`
	MaxBudget     int `json:"max_budget,omitempty"`
	// DecayLambda, DecayMinWeight and DecayEveryMS configure the
	// tenant's exponential forgetting (0 lambda = append-only). The
	// decay epoch is logical and stored in the tenant's snapshot, so a
	// paged-out tenant's clock pauses while it is cold.
	DecayLambda    float64 `json:"decay_lambda,omitempty"`
	DecayMinWeight float64 `json:"decay_min_weight,omitempty"`
	DecayEveryMS   int64   `json:"decay_every_ms,omitempty"`
}

// withDefaults fills zero fields from d.
func (tc TenantConfig) withDefaults(d TenantConfig) TenantConfig {
	if tc.Dim == 0 {
		tc.Dim = d.Dim
	}
	if len(tc.Labels) == 0 {
		tc.Labels = append([]int(nil), d.Labels...)
	}
	if tc.Shards == 0 {
		tc.Shards = d.Shards
	}
	if tc.Shards == 0 {
		tc.Shards = 1
	}
	if tc.NodesPerSecond == 0 {
		tc.NodesPerSecond = d.NodesPerSecond
	}
	if tc.DefaultBudget == 0 {
		tc.DefaultBudget = d.DefaultBudget
	}
	if tc.MaxBudget == 0 {
		tc.MaxBudget = d.MaxBudget
	}
	if tc.DecayLambda == 0 {
		tc.DecayLambda = d.DecayLambda
	}
	if tc.DecayMinWeight == 0 {
		tc.DecayMinWeight = d.DecayMinWeight
	}
	if tc.DecayEveryMS == 0 {
		tc.DecayEveryMS = d.DecayEveryMS
	}
	return tc
}

// ServerConfig shapes the tenant's server.Config from its resolved
// TenantConfig plus the carved admission quota.
func (tc TenantConfig) ServerConfig(carvedNPS float64) server.Config {
	nps := tc.NodesPerSecond
	if nps == 0 {
		nps = carvedNPS
	}
	cfg := server.Config{
		DefaultBudget:  tc.DefaultBudget,
		MaxBudget:      tc.MaxBudget,
		NodesPerSecond: nps,
	}
	if tc.DecayLambda > 0 {
		cfg.Decay.Lambda = tc.DecayLambda
		cfg.Decay.MinWeight = tc.DecayMinWeight
		cfg.DecayEvery = time.Duration(tc.DecayEveryMS) * time.Millisecond
	}
	return cfg
}

// Backend opens tenants of one workload; ClassifyBackend and
// ClusterBackend are the two engine instantiations. A tenant is a
// server.Served: the registry delegates requests to its Handler, runs
// Checkpoint + CloseDurability (after Close) to evict it, and reads
// Len, ApproxBytes and Generation for the paging caps and the manifest.
type Backend[T server.Served] struct {
	// Workload names the backend (replica.WorkloadClassify or
	// replica.WorkloadCluster); recorded in
	// the registry manifest and checked at open, so a classification
	// registry cannot silently decode clustering snapshots.
	Workload string
	// CreatePaths lists the tenant-relative POST paths whose first hit
	// auto-creates the tenant — "created on first write".
	CreatePaths map[string]bool
	// Open opens (or bootstraps) one tenant's durable state at dir and
	// completes recovery, returning a serving tenant. carvedNPS is the
	// admission quota the registry carved for this tenant.
	Open func(dir string, tc TenantConfig, carvedNPS float64, dopts server.DurabilityOptions) (T, error)
}

// Options configure a registry.
type Options struct {
	// Dir is the registry root: LOCK, REGISTRY manifest and one
	// durability subdirectory per tenant under tenants/. Required.
	Dir string
	// MaxResident caps how many tenants are resident in memory at once
	// (0 = DefaultMaxResident); the LRU idle tenant beyond the cap is
	// checkpointed and evicted.
	MaxResident int
	// MaxResidentBytes additionally caps the estimated resident bytes
	// across tenants (0 = no byte cap). Enforced at load time, never
	// below one resident tenant.
	MaxResidentBytes int64
	// NodesPerSecond is the global node-read budget; each tenant's
	// admission bucket is carved NodesPerSecond/MaxResident from it
	// unless its TenantConfig overrides. 0 disables admission.
	NodesPerSecond float64
	// Defaults fills unset TenantConfig fields at tenant creation.
	Defaults TenantConfig
	// DefaultTenant is the tenant the legacy single-tenant routes alias
	// ("" = DefaultTenantName).
	DefaultTenant string
	// FsyncEvery and SegmentBytes are passed to every tenant's WAL
	// (see server.DurabilityOptions).
	FsyncEvery   time.Duration
	SegmentBytes int64
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.MaxResident <= 0 {
		o.MaxResident = DefaultMaxResident
	}
	if o.DefaultTenant == "" {
		o.DefaultTenant = DefaultTenantName
	}
	if o.Defaults.Shards == 0 {
		o.Defaults.Shards = 1
	}
	return o
}

// tenant lifecycle states. Transitions: cold → loading → resident →
// evicting → cold. A request on a loading or evicting tenant waits on
// the handle's cond; it can never observe a half-closed engine because
// srv is only readable in the resident state and eviction requires
// inflight == 0.
const (
	stateCold = iota
	stateLoading
	stateResident
	stateEvicting
)

// handle is one tenant's in-memory lifecycle record. All fields are
// guarded by the registry mutex; cond shares it.
type handle[T server.Served] struct {
	name    string
	cfg     TenantConfig // resolved creation config (persisted copy wins at load)
	state   int
	srv     T
	handler http.Handler
	// inflight counts requests currently inside the tenant's handler;
	// eviction only picks handles with inflight == 0, so a request
	// either wins the LRU touch (pinning the tenant) or arrives during
	// eviction and blocks until the reload.
	inflight int
	lastUse  int64
	cond     *sync.Cond
}

// Registry serves a population of named tenants with LRU paging. All
// methods are safe for concurrent use.
type Registry[T server.Served] struct {
	opts    Options
	backend Backend[T]
	lock    *os.File

	mu       sync.Mutex
	tenants  map[string]*handle[T] // touched tenants (any state)
	known    map[string]uint64     // every tenant ever created → last recorded generation
	clock    int64                 // LRU touch counter
	resident int
	draining bool

	// manifest flushing: writes coalesce through a background flusher
	// (a crash before a flush is healed by directory adoption at the
	// next Open), with a final synchronous save at Close.
	manifestMu sync.Mutex
	dirty      chan struct{}
	stopFlush  chan struct{}
	flushDone  chan struct{}
	closeOnce  sync.Once
	closeErr   error

	coldLoads     atomic.Int64
	creations     atomic.Int64
	evictions     atomic.Int64
	evictErrors   atomic.Int64
	loadErrors    atomic.Int64
	coldLoadNs    atomic.Int64
	coldLoadMaxNs atomic.Int64
}

// ErrUnknownTenant is returned when a read addresses a tenant that was
// never created; the HTTP layer maps it to 404.
var ErrUnknownTenant = fmt.Errorf("registry: unknown tenant")

// ErrDraining rejects requests while the registry checkpoints all
// tenants for shutdown; the HTTP layer maps it to 503.
var ErrDraining = fmt.Errorf("registry: draining")

// ErrInvalidName rejects tenant names outside ValidTenantName; the
// HTTP layer maps it to 400.
var ErrInvalidName = fmt.Errorf("registry: invalid tenant name")

// ValidTenantName reports whether name is usable as a tenant name (and
// therefore a directory name): 1–64 characters from [A-Za-z0-9._-],
// not starting with a dot.
func ValidTenantName(name string) bool {
	if name == "" || len(name) > 64 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Open opens (or creates) a registry root: flock the root, sweep
// stranded temp files from the whole tree (a crash mid-eviction
// strands them inside tenant subdirectories, which a cold tenant might
// not open for days), load the REGISTRY manifest and adopt any tenant
// directory a crash left out of it. No tenant model is loaded — cold
// tenants stay on disk until their first request.
func Open[T server.Served](opts Options, backend Backend[T]) (*Registry[T], error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("registry: root dir required")
	}
	if backend.Open == nil || backend.Workload == "" {
		return nil, fmt.Errorf("registry: backend incomplete")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(filepath.Join(opts.Dir, tenantsSubdir), 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	lock, err := lockRoot(opts.Dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Registry[T], error) {
		lock.Close()
		return nil, err
	}
	// The tree sweep is the multi-tenant form of the single-dir startup
	// sweep: per-tenant subdirectories included.
	if err := persist.RemoveStaleTempsTree(opts.Dir); err != nil {
		return fail(err)
	}
	m, had, err := persist.LoadRegistryManifest(opts.Dir)
	if err != nil {
		return fail(err)
	}
	if had && m.Workload != backend.Workload {
		return fail(fmt.Errorf("registry: root %s serves workload %q, not %q", opts.Dir, m.Workload, backend.Workload))
	}
	r := &Registry[T]{
		opts:      opts,
		backend:   backend,
		lock:      lock,
		tenants:   make(map[string]*handle[T]),
		known:     make(map[string]uint64),
		dirty:     make(chan struct{}, 1),
		stopFlush: make(chan struct{}),
		flushDone: make(chan struct{}),
	}
	for _, t := range m.Tenants {
		r.known[t.Name] = t.Generation
	}
	adopted, err := r.adoptStrays()
	if err != nil {
		return fail(err)
	}
	if !had || adopted {
		if err := r.saveManifest(); err != nil {
			return fail(err)
		}
	}
	go r.flushLoop()
	return r, nil
}

// adoptStrays scans the tenants directory for subdirectories carrying
// a TENANT.json that the manifest does not list — the crash window
// between tenant creation and the next manifest flush — and adopts
// them, reporting whether anything changed.
func (r *Registry[T]) adoptStrays() (bool, error) {
	entries, err := os.ReadDir(filepath.Join(r.opts.Dir, tenantsSubdir))
	if err != nil {
		return false, fmt.Errorf("registry: %w", err)
	}
	adopted := false
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if _, ok := r.known[name]; ok || !ValidTenantName(name) {
			continue
		}
		if _, err := os.Stat(filepath.Join(r.tenantDir(name), tenantConfigName)); err != nil {
			continue // debris from a crash before TENANT.json: ignored
		}
		gm, had, err := persist.LoadManifest(r.tenantDir(name))
		if err != nil {
			return false, fmt.Errorf("registry: adopt %s: %w", name, err)
		}
		var gen uint64
		if had {
			gen = gm.Generation
		}
		r.known[name] = gen
		adopted = true
	}
	return adopted, nil
}

// lockRoot takes the registry root's non-blocking exclusive flock —
// the single-writer guarantee for the whole tree. Each tenant's own
// LOCK is additionally taken while that tenant is resident (by the
// standard durable-open path), so even a process that bypasses the
// root and points a single-tenant server at one tenant subdirectory
// cannot become a second writer on a loaded tenant.
func lockRoot(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("registry: lock %s: %w", dir, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("registry: root %s is in use by another process: %w", dir, err)
	}
	return f, nil
}

// tenantDir names a tenant's durability subdirectory.
func (r *Registry[T]) tenantDir(name string) string {
	return filepath.Join(r.opts.Dir, tenantsSubdir, name)
}

// carvedNPS is the admission quota a tenant gets from the global
// budget when its config does not override: an equal share per
// resident slot, so the aggregate refinement work across a full
// residency set tracks the configured global capacity.
func (r *Registry[T]) carvedNPS() float64 {
	if r.opts.NodesPerSecond <= 0 {
		return 0
	}
	return r.opts.NodesPerSecond / float64(r.opts.MaxResident)
}

// With runs fn against the named tenant, creating it (when create is
// true) or loading it from disk if cold, and pins it resident for the
// duration — the programmatic form of one HTTP request.
func (r *Registry[T]) With(name string, create bool, fn func(T) error) error {
	h, srv, err := r.acquire(name, create, nil)
	if err != nil {
		return err
	}
	defer r.release(h)
	return fn(srv)
}

// Create ensures the named tenant exists, creating it with tc (zero
// fields fall back to the registry defaults) — the PUT /t/{tenant}
// path. It reports whether the tenant was newly created; an existing
// tenant keeps its creation-time config and tc is ignored.
func (r *Registry[T]) Create(name string, tc TenantConfig) (bool, error) {
	r.mu.Lock()
	_, existed := r.known[name]
	r.mu.Unlock()
	h, _, err := r.acquire(name, true, &tc)
	if err != nil {
		return false, err
	}
	r.release(h)
	return !existed, nil
}

// acquire resolves a tenant to a resident server, loading or creating
// as needed, and increments its inflight pin. The caller must release.
// cfg, when non-nil, seeds the creation config of a tenant that does
// not exist yet (it has no effect on existing tenants).
func (r *Registry[T]) acquire(name string, create bool, cfg *TenantConfig) (*handle[T], T, error) {
	var zero T
	if !ValidTenantName(name) {
		return nil, zero, fmt.Errorf("%w %q", ErrInvalidName, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.draining {
			return nil, zero, ErrDraining
		}
		h := r.tenants[name]
		if h == nil {
			_, exists := r.known[name]
			if !exists && !create {
				return nil, zero, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
			}
			h = &handle[T]{name: name, state: stateCold}
			h.cond = sync.NewCond(&r.mu)
			r.tenants[name] = h
		}
		if cfg != nil && h.state == stateCold {
			if _, exists := r.known[name]; !exists {
				h.cfg = *cfg
			}
		}
		switch h.state {
		case stateResident:
			h.inflight++
			r.clock++
			h.lastUse = r.clock
			return h, h.srv, nil
		case stateLoading, stateEvicting:
			h.cond.Wait()
		case stateCold:
			if _, exists := r.known[name]; !exists && !create {
				// The handle can outlive a failed create; re-check.
				return nil, zero, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
			}
			h.state = stateLoading
			srv, err := r.load(h) // drops and reacquires r.mu
			if err != nil {
				h.state = stateCold
				h.cond.Broadcast()
				return nil, zero, err
			}
			h.srv = srv
			h.handler = srv.Handler()
			h.state = stateResident
			r.resident++
			h.inflight++
			r.clock++
			h.lastUse = r.clock
			h.cond.Broadcast()
			over := r.overCapLocked()
			if over {
				// Evict outside this lock scope; the pin we hold keeps the
				// tenant we just loaded safe.
				r.mu.Unlock()
				r.maybeEvict()
				r.mu.Lock()
			}
			return h, h.srv, nil
		}
	}
}

// release drops a request's inflight pin.
func (r *Registry[T]) release(h *handle[T]) {
	r.mu.Lock()
	h.inflight--
	if h.inflight == 0 {
		h.cond.Broadcast()
	}
	r.mu.Unlock()
}

// load opens (or creates) a cold tenant's durable state. Called with
// r.mu held and h.state == stateLoading; the lock is dropped for the
// disk work — other tenants keep serving — and reacquired before
// return.
func (r *Registry[T]) load(h *handle[T]) (T, error) {
	var zero T
	_, exists := r.known[h.name]
	r.mu.Unlock()
	defer r.mu.Lock()
	start := time.Now()
	dir := r.tenantDir(h.name)
	var tc TenantConfig
	if exists {
		loaded, err := loadTenantConfig(dir)
		if err != nil {
			r.loadErrors.Add(1)
			return zero, err
		}
		tc = loaded.withDefaults(r.opts.Defaults)
	} else {
		tc = h.cfg.withDefaults(r.opts.Defaults)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			r.loadErrors.Add(1)
			return zero, fmt.Errorf("registry: create tenant %s: %w", h.name, err)
		}
		if err := saveTenantConfig(dir, tc); err != nil {
			r.loadErrors.Add(1)
			return zero, err
		}
	}
	dopts := server.DurabilityOptions{Dir: dir, FsyncEvery: r.opts.FsyncEvery, SegmentBytes: r.opts.SegmentBytes}
	srv, err := r.backend.Open(dir, tc, r.carvedNPS(), dopts)
	if err != nil {
		r.loadErrors.Add(1)
		return zero, fmt.Errorf("registry: tenant %s: %w", h.name, err)
	}
	ns := time.Since(start).Nanoseconds()
	r.coldLoads.Add(1)
	r.coldLoadNs.Add(ns)
	for {
		old := r.coldLoadMaxNs.Load()
		if ns <= old || r.coldLoadMaxNs.CompareAndSwap(old, ns) {
			break
		}
	}
	if !exists {
		r.creations.Add(1)
		r.mu.Lock()
		r.known[h.name] = 0
		r.mu.Unlock()
		r.markDirty()
	}
	h.cfg = tc
	return srv, nil
}

// overCapLocked reports whether the resident set exceeds the paging
// caps. The byte check never evicts below one resident tenant — a
// single tenant larger than the cap would otherwise thrash on every
// request.
func (r *Registry[T]) overCapLocked() bool {
	if r.resident > r.opts.MaxResident {
		return true
	}
	if r.opts.MaxResidentBytes > 0 && r.resident > 1 {
		return r.residentBytesLocked() > r.opts.MaxResidentBytes
	}
	return false
}

// residentBytesLocked sums the resident tenants' memory estimates.
func (r *Registry[T]) residentBytesLocked() int64 {
	var total int64
	for _, h := range r.tenants {
		if h.state == stateResident {
			total += h.srv.ApproxBytes()
		}
	}
	return total
}

// maybeEvict pages out LRU idle tenants until the caps are satisfied
// (or no idle victim exists — busy tenants are never evicted under a
// request).
func (r *Registry[T]) maybeEvict() {
	for {
		r.mu.Lock()
		if !r.overCapLocked() {
			r.mu.Unlock()
			return
		}
		var victim *handle[T]
		for _, h := range r.tenants {
			if h.state == stateResident && h.inflight == 0 &&
				(victim == nil || h.lastUse < victim.lastUse) {
				victim = h
			}
		}
		if victim == nil {
			r.mu.Unlock()
			return
		}
		if r.pageOut(victim) != nil {
			return
		}
	}
}

// pageOut checkpoints and closes the resident, idle tenant h and marks
// it cold. Called with r.mu held, it returns with r.mu released: the
// disk work runs unlocked, with h in stateEvicting so that requests for
// it wait.
func (r *Registry[T]) pageOut(h *handle[T]) error {
	h.state = stateEvicting
	r.resident--
	srv := h.srv
	r.mu.Unlock()
	gen, err := r.checkpointClose(srv)
	r.mu.Lock()
	defer r.mu.Unlock()
	defer h.cond.Broadcast()
	if err != nil {
		// The checkpoint failed; the model is intact in memory, so the
		// tenant reverts to resident (its maintenance loop is stopped —
		// the next successful eviction/reload restores it) rather than
		// losing unflushed writes.
		h.state = stateResident
		r.resident++
		r.evictErrors.Add(1)
		return err
	}
	var zero T
	h.srv, h.handler, h.state = zero, nil, stateCold
	r.known[h.name] = gen
	r.evictions.Add(1)
	r.markDirty()
	return nil
}

// checkpointClose runs the eviction write-out: stop maintenance, fold
// the WAL into a fresh snapshot generation, close the WAL and release
// the tenant directory lock.
func (r *Registry[T]) checkpointClose(srv T) (uint64, error) {
	srv.Close()
	if err := srv.Checkpoint(); err != nil {
		return 0, err
	}
	gen := srv.Generation()
	if err := srv.CloseDurability(); err != nil {
		return gen, err
	}
	return gen, nil
}

// Evict pages out the named tenant now, waiting for its in-flight
// requests to finish first. A cold or unknown tenant is a no-op.
func (r *Registry[T]) Evict(name string) error {
	r.mu.Lock()
	for {
		h := r.tenants[name]
		if h == nil || h.state == stateCold {
			r.mu.Unlock()
			return nil
		}
		if h.state == stateLoading || h.state == stateEvicting || h.inflight > 0 {
			h.cond.Wait()
			continue
		}
		return r.pageOut(h)
	}
}

// SetDraining flips the registry's draining state: while draining,
// every tenant request answers 503 and /readyz fails.
func (r *Registry[T]) SetDraining(v bool) {
	r.mu.Lock()
	r.draining = v
	r.mu.Unlock()
}

// Draining reports whether the registry is draining.
func (r *Registry[T]) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Close drains the registry: new requests are rejected, every loaded
// tenant is checkpointed and closed once its in-flight requests finish
// ("drain = checkpoint-all"), the manifest gets a final synchronous
// save and the root lock is released. Safe to call more than once; the
// first error from a tenant checkpoint is returned.
func (r *Registry[T]) Close() error {
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.draining = true
		for {
			var h *handle[T]
			for _, c := range r.tenants {
				if c.state != stateCold {
					h = c
					break
				}
			}
			if h == nil {
				break
			}
			if h.state == stateLoading || h.state == stateEvicting || h.inflight > 0 {
				h.cond.Wait()
				continue
			}
			h.state = stateEvicting
			r.resident--
			srv := h.srv
			r.mu.Unlock()
			gen, err := r.checkpointClose(srv)
			if err != nil && r.closeErr == nil {
				r.closeErr = fmt.Errorf("registry: drain %s: %w", h.name, err)
			}
			r.mu.Lock()
			var zero T
			h.srv = zero
			h.handler = nil
			h.state = stateCold
			if err == nil {
				r.known[h.name] = gen
			}
			h.cond.Broadcast()
		}
		r.mu.Unlock()
		close(r.stopFlush)
		<-r.flushDone
		if err := r.saveManifest(); err != nil && r.closeErr == nil {
			r.closeErr = err
		}
		if err := r.lock.Close(); err != nil && r.closeErr == nil {
			r.closeErr = err
		}
	})
	return r.closeErr
}

// markDirty schedules a coalesced manifest flush.
func (r *Registry[T]) markDirty() {
	select {
	case r.dirty <- struct{}{}:
	default:
	}
}

// flushLoop writes the manifest at most every few tens of
// milliseconds no matter how fast tenants churn — a tenant-creation
// storm must not pay one fsync'd atomic write per tenant. A crash
// before a pending flush is healed by adoptStrays at the next Open.
func (r *Registry[T]) flushLoop() {
	defer close(r.flushDone)
	for {
		select {
		case <-r.stopFlush:
			return
		case <-r.dirty:
			time.Sleep(50 * time.Millisecond)
			select { // coalesce anything that arrived during the sleep
			case <-r.dirty:
			default:
			}
			r.saveManifest() // best-effort; Close saves synchronously
		}
	}
}

// saveManifest snapshots the known-tenant map and writes it
// atomically.
func (r *Registry[T]) saveManifest() error {
	r.manifestMu.Lock()
	defer r.manifestMu.Unlock()
	r.mu.Lock()
	m := persist.RegistryManifest{Workload: r.backend.Workload}
	for name, gen := range r.known {
		m.Tenants = append(m.Tenants, persist.RegistryTenant{Name: name, Generation: gen})
	}
	r.mu.Unlock()
	sort.Slice(m.Tenants, func(i, j int) bool { return m.Tenants[i].Name < m.Tenants[j].Name })
	return persist.SaveRegistryManifest(r.opts.Dir, m)
}

// loadTenantConfig reads a tenant's persisted TENANT.json.
func loadTenantConfig(dir string) (TenantConfig, error) {
	raw, err := os.ReadFile(filepath.Join(dir, tenantConfigName))
	if err != nil {
		return TenantConfig{}, fmt.Errorf("registry: tenant config: %w", err)
	}
	var tc TenantConfig
	if err := json.Unmarshal(raw, &tc); err != nil {
		return TenantConfig{}, fmt.Errorf("registry: tenant config: %w", err)
	}
	return tc, nil
}

// saveTenantConfig writes a tenant's TENANT.json atomically.
func saveTenantConfig(dir string, tc TenantConfig) error {
	return persist.WriteFileAtomic(filepath.Join(dir, tenantConfigName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(tc)
	})
}

// Tenants returns how many tenants the registry knows (resident or
// cold).
func (r *Registry[T]) Tenants() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.known)
}

// Resident returns how many tenants are currently loaded.
func (r *Registry[T]) Resident() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resident
}

// Stats is the registry-level /stats summary: population, paging
// counters and the resident working set. Per-tenant engine stats live
// at /t/{tenant}/stats.
type Stats struct {
	// Workload names the served workload.
	Workload string `json:"workload"`
	// Tenants is the total tenant population (resident + cold);
	// Resident of them are loaded, bounded by MaxResident.
	Tenants     int `json:"tenants"`
	Resident    int `json:"resident"`
	MaxResident int `json:"max_resident"`
	// ResidentBytes estimates the loaded models' memory;
	// MaxResidentBytes is the configured cap (0 = none).
	ResidentBytes    int64 `json:"resident_bytes"`
	MaxResidentBytes int64 `json:"max_resident_bytes"`
	// ResidentObservations sums the loaded tenants' observation counts.
	ResidentObservations int `json:"resident_observations"`
	// Creations, ColdLoads and Evictions are lifetime paging counters;
	// a cold load is any load from disk, including the first.
	Creations int64 `json:"creations"`
	ColdLoads int64 `json:"cold_loads"`
	Evictions int64 `json:"evictions"`
	// EvictErrors and LoadErrors count failed paging operations.
	EvictErrors int64 `json:"evict_errors"`
	LoadErrors  int64 `json:"load_errors"`
	// ColdLoadMeanMs and ColdLoadMaxMs summarize load latency — the
	// price a request pays to touch a cold tenant.
	ColdLoadMeanMs float64 `json:"cold_load_mean_ms"`
	ColdLoadMaxMs  float64 `json:"cold_load_max_ms"`
	// Draining reports the shutdown state.
	Draining bool `json:"draining"`
}

// Stats returns a point-in-time registry summary.
func (r *Registry[T]) Stats() Stats {
	r.mu.Lock()
	st := Stats{
		Workload:         r.backend.Workload,
		Tenants:          len(r.known),
		Resident:         r.resident,
		MaxResident:      r.opts.MaxResident,
		MaxResidentBytes: r.opts.MaxResidentBytes,
		Draining:         r.draining,
	}
	for _, h := range r.tenants {
		if h.state == stateResident {
			st.ResidentBytes += h.srv.ApproxBytes()
			st.ResidentObservations += h.srv.Len()
		}
	}
	r.mu.Unlock()
	st.Creations = r.creations.Load()
	st.ColdLoads = r.coldLoads.Load()
	st.Evictions = r.evictions.Load()
	st.EvictErrors = r.evictErrors.Load()
	st.LoadErrors = r.loadErrors.Load()
	if st.ColdLoads > 0 {
		st.ColdLoadMeanMs = float64(r.coldLoadNs.Load()) / float64(st.ColdLoads) / 1e6
	}
	st.ColdLoadMaxMs = float64(r.coldLoadMaxNs.Load()) / 1e6
	return st
}
