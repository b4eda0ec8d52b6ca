// Package registry is the multi-tenant model registry: thousands of
// named models served from one process, each tenant a full instance of
// the serving engine — its own shards, admission bucket, decay state,
// durability directory and replication hub — created
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
// On disk a registry root holds a flock'd LOCK, a REGISTRY stamp naming
// the workload it serves, and one durability subdirectory per tenant
// under tenants/ — each with its TENANT.json beside its own MANIFEST,
// snapshot, WAL segments and LOCK, exactly the layout a single-tenant
// server uses, so a tenant directory can be inspected (or, offline,
// served) with the existing tools. That directory is the only record of
// the population: a tenant is a validly named subdirectory holding a
// TENANT.json.
package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bayestree/internal/persist"
	"bayestree/internal/replica"
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

// stampName is the root file naming the workload a registry root
// serves, written once when the root is created.
const stampName = "REGISTRY"

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
	// DecayLambda, DecayMinWeight and DecayEvery configure the tenant's
	// forgetting (0 lambda = append-only) as server.Config's Decay and
	// DecayEvery do: its clock is the write count, so a cold tenant
	// does not fade.
	DecayLambda    float64 `json:"decay_lambda,omitempty"`
	DecayMinWeight float64 `json:"decay_min_weight,omitempty"`
	DecayEvery     int     `json:"decay_every,omitempty"`
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
	if tc.DecayEvery == 0 {
		tc.DecayEvery = d.DecayEvery
	}
	return tc
}

// check refuses a resolved config that no tenant of the workload can be
// opened with. The fault is the request's or the registry defaults', so
// retrying cannot help: the HTTP layer answers 400.
func (tc TenantConfig) check(workload string) error {
	switch {
	case tc.Dim == 0:
		return fmt.Errorf("%w: tenant dim unset (configure registry defaults or PUT the tenant)", ErrInvalidConfig)
	case tc.Dim < 0:
		return fmt.Errorf("%w: tenant dim %d, want ≥ 1", ErrInvalidConfig, tc.Dim)
	case tc.Shards < 1:
		return fmt.Errorf("%w: tenant shards %d, want ≥ 1", ErrInvalidConfig, tc.Shards)
	case tc.DecayEvery < 0:
		return fmt.Errorf("%w: tenant decay_every %d, want ≥ 0", ErrInvalidConfig, tc.DecayEvery)
	case workload != replica.WorkloadClassify:
		return nil
	case len(tc.Labels) < 2:
		return fmt.Errorf("%w: tenant needs at least two labels (configure registry defaults or PUT the tenant)", ErrInvalidConfig)
	}
	for i, l := range tc.Labels {
		if slices.Contains(tc.Labels[:i], l) {
			return fmt.Errorf("%w: tenant label %d repeated", ErrInvalidConfig, l)
		}
	}
	if err := tc.ServerConfig(0).Decay.Validate(); err != nil {
		return fmt.Errorf("%w: tenant %v", ErrInvalidConfig, err)
	}
	return nil
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
		cfg.DecayEvery = tc.DecayEvery
	}
	return cfg
}

// Backend opens tenants of one workload; ClassifyBackend and
// ClusterBackend are the two engine instantiations. A tenant is a
// server.Served: the registry delegates requests to its Handler, runs
// Checkpoint + CloseDurability (after Close) to evict it, and reads
// Len and ApproxBytes for the paging caps and /stats.
type Backend[T server.Served] struct {
	// Workload names the backend (replica.WorkloadClassify or
	// replica.WorkloadCluster); stamped on the registry root and checked
	// at open, so a classification registry cannot silently decode
	// clustering snapshots.
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
	// Dir is the registry root: LOCK, REGISTRY stamp and one durability
	// subdirectory per tenant under tenants/. Required.
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
	// FsyncEvery is passed to every tenant's WAL (see
	// server.DurabilityOptions).
	FsyncEvery time.Duration
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.MaxResident <= 0 {
		o.MaxResident = DefaultMaxResident
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
	name string
	cfg  TenantConfig // resolved creation config (persisted copy wins at load)
	// created is whether the tenant exists on disk: its directory holds
	// a TENANT.json. A handle a failed create left behind stays false.
	created bool
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
	tenants  map[string]*handle[T] // every tenant on disk, and any being created
	clock    int64                 // LRU touch counter
	resident int
	draining bool

	closeOnce sync.Once
	closeErr  error

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

// ErrInvalidConfig rejects a tenant creation whose resolved
// TenantConfig cannot be opened; the HTTP layer maps it to 400.
var ErrInvalidConfig = fmt.Errorf("registry: invalid tenant config")

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
// not open for days), check the workload stamp and read the population
// off the tenants directory. No tenant model is loaded — cold tenants
// stay on disk until their first request.
//
// The root's flock is the single-writer guarantee for the whole tree.
// Each tenant's own LOCK is additionally taken while that tenant is
// resident (by the standard durable-open path), so even a process that
// bypasses the root and points a single-tenant server at one tenant
// subdirectory cannot become a second writer on a loaded tenant.
func Open[T server.Served](opts Options, backend Backend[T]) (*Registry[T], error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("registry: root dir required")
	}
	if backend.Open == nil || backend.Workload == "" {
		return nil, fmt.Errorf("registry: backend incomplete")
	}
	opts = opts.withDefaults()
	tenantsDir := filepath.Join(opts.Dir, tenantsSubdir)
	if err := os.MkdirAll(tenantsDir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	lock, err := persist.LockDir(opts.Dir)
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
	if err := checkStamp(opts.Dir, backend.Workload); err != nil {
		return fail(err)
	}
	entries, err := os.ReadDir(tenantsDir)
	if err != nil {
		return fail(fmt.Errorf("registry: %w", err))
	}
	r := &Registry[T]{opts: opts, backend: backend, lock: lock, tenants: make(map[string]*handle[T])}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !ValidTenantName(name) {
			continue
		}
		// A directory without TENANT.json is debris from a crash inside
		// a create, before the config was written: not a tenant.
		if _, err := os.Stat(filepath.Join(tenantsDir, name, tenantConfigName)); err == nil {
			r.tenants[name] = r.newHandle(name, true)
		}
	}
	return r, nil
}

// stamp is the REGISTRY file. A root written before the population
// moved to the tenants directory also lists its tenants there; the
// list is ignored.
type stamp struct {
	Workload string `json:"workload"`
}

// checkStamp refuses a root stamped with another workload, and stamps a
// root that has none.
func checkStamp(dir, workload string) error {
	path := filepath.Join(dir, stampName)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return writeJSONFile(path, stamp{Workload: workload})
	}
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	var s stamp
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("registry: %s: %w", path, err)
	}
	if s.Workload != workload {
		return fmt.Errorf("registry: root %s serves workload %q, not %q", dir, s.Workload, workload)
	}
	return nil
}

// newHandle makes a cold handle for the named tenant.
func (r *Registry[T]) newHandle(name string, created bool) *handle[T] {
	h := &handle[T]{name: name, created: created, state: stateCold}
	h.cond = sync.NewCond(&r.mu)
	return h
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
	h := r.tenants[name]
	existed := h != nil && h.created
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
			if !create {
				return nil, zero, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
			}
			h = r.newHandle(name, false)
			r.tenants[name] = h
		}
		if cfg != nil && h.state == stateCold && !h.created {
			h.cfg = *cfg
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
			if !h.created && !create {
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
			h.created = true
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
// return. A create writes the tenant's TENANT.json first, which makes
// its directory a tenant, and removes it again if the open fails.
func (r *Registry[T]) load(h *handle[T]) (srv T, err error) {
	created := h.created
	r.mu.Unlock()
	defer r.mu.Lock()
	start := time.Now()
	dir := r.tenantDir(h.name)
	config := filepath.Join(dir, tenantConfigName)
	defer func() {
		if err != nil {
			r.loadErrors.Add(1)
			if !created {
				// Best effort: a TENANT.json left behind only makes a
				// tenant whose loads fail as this create did.
				os.Remove(config)
			}
		}
	}()
	tc := h.cfg
	if created {
		if tc, err = loadTenantConfig(config); err != nil {
			return srv, err
		}
	}
	// A damaged TENANT.json read back refuses the load here.
	tc = tc.withDefaults(r.opts.Defaults)
	if err = tc.check(r.backend.Workload); err != nil {
		return srv, err
	}
	if !created {
		if err = os.MkdirAll(dir, 0o755); err != nil {
			return srv, fmt.Errorf("registry: create tenant %s: %w", h.name, err)
		}
		if err = writeJSONFile(config, tc); err != nil {
			return srv, err
		}
	}
	dopts := server.DurabilityOptions{Dir: dir, FsyncEvery: r.opts.FsyncEvery}
	if srv, err = r.backend.Open(dir, tc, r.carvedNPS(), dopts); err != nil {
		return srv, fmt.Errorf("registry: tenant %s: %w", h.name, err)
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
	if !created {
		r.creations.Add(1)
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
	err := checkpointClose(srv)
	r.mu.Lock()
	defer r.mu.Unlock()
	defer h.cond.Broadcast()
	if err != nil {
		// The checkpoint failed; the model is intact in memory, so the
		// tenant reverts to resident rather than losing unflushed writes.
		h.state = stateResident
		r.resident++
		r.evictErrors.Add(1)
		return err
	}
	var zero T
	h.srv, h.handler, h.state = zero, nil, stateCold
	r.evictions.Add(1)
	return nil
}

// checkpointClose runs the eviction write-out: fold the WAL into a
// fresh snapshot generation, close the WAL and release the tenant
// directory lock.
func checkpointClose[T server.Served](srv T) error {
	if err := srv.Checkpoint(); err != nil {
		return err
	}
	return srv.CloseDurability()
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

// Close drains the registry: new requests are rejected, and every
// loaded tenant is paged out once its in-flight requests finish
// ("drain = checkpoint-all"), then the root lock is released. A tenant
// whose checkpoint fails stays resident. Safe to call more than once;
// the first error from a tenant checkpoint is returned.
func (r *Registry[T]) Close() error {
	r.closeOnce.Do(func() {
		// Draining stops every new load, so the loaded set can only
		// shrink from here.
		r.mu.Lock()
		r.draining = true
		var loaded []string
		for name, h := range r.tenants {
			if h.state != stateCold {
				loaded = append(loaded, name)
			}
		}
		r.mu.Unlock()
		for _, name := range loaded {
			if err := r.Evict(name); err != nil && r.closeErr == nil {
				r.closeErr = fmt.Errorf("registry: drain %s: %w", name, err)
			}
		}
		if err := r.lock.Close(); err != nil && r.closeErr == nil {
			r.closeErr = err
		}
	})
	return r.closeErr
}

// loadTenantConfig reads a tenant's persisted TENANT.json.
func loadTenantConfig(path string) (tc TenantConfig, err error) {
	raw, err := os.ReadFile(path)
	if err == nil {
		tc, err = decodeTenantConfig(raw)
	}
	if err != nil {
		return TenantConfig{}, fmt.Errorf("registry: tenant config: %w", err)
	}
	return tc, nil
}

// decodeTenantConfig reads a TENANT.json or a PUT body strictly: an
// unknown key (a misspelt one, the retired decay_every_ms) is refused by
// name rather than left at the default, as is anything after the value.
func decodeTenantConfig(raw []byte) (TenantConfig, error) {
	var tc TenantConfig
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tc); err != nil {
		return TenantConfig{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return TenantConfig{}, fmt.Errorf("data after the tenant config")
	}
	return tc, nil
}

// writeJSONFile writes v as indented JSON to path atomically.
func writeJSONFile(path string, v any) error {
	return persist.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// Tenants returns how many tenants the registry holds (resident or
// cold).
func (r *Registry[T]) Tenants() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenantsLocked()
}

// tenantsLocked counts the tenants that exist on disk.
func (r *Registry[T]) tenantsLocked() int {
	n := 0
	for _, h := range r.tenants {
		if h.created {
			n++
		}
	}
	return n
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
		Tenants:          r.tenantsLocked(),
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
