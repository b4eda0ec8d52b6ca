package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"bayestree/internal/persist"
	"bayestree/internal/server"
)

// This file is the registry's HTTP surface. Tenant-scoped routes
// (/t/{tenant}/classify, /t/{tenant}/insert, …) strip the tenant
// prefix and delegate to the tenant's own handler — the full
// single-tenant endpoint set, per tenant — after pinning the tenant
// resident for the request. The legacy single-tenant routes keep
// working as an alias for the default tenant (or the tenant named by
// an X-Tenant header), so existing clients and tools need no change.
//
// Lazy loading is synchronous: a request that touches a cold tenant
// blocks while the snapshot decodes — a clean eviction truncated the
// WAL, so the reload is a bounded disk fetch — then proceeds. 503 with
// Retry-After is reserved for draining and for load failures, where a
// retry after the disk heals genuinely can succeed.

// Handler returns the registry's HTTP mux.
func (r *Registry[T]) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /t/{tenant}", r.handlePut)
	mux.HandleFunc("GET /t/{tenant}", r.handleInfo)
	mux.HandleFunc("/t/{tenant}/{rest...}", r.handleTenant)
	mux.HandleFunc("GET /stats", r.handleStats)
	server.HandleHealth(mux, func() string {
		if r.Draining() {
			return "draining"
		}
		return ""
	})
	mux.HandleFunc("/", r.handleDefault)
	return mux
}

// handleTenant serves /t/{tenant}/{rest...}: resolve the tenant,
// rewrite the path to the tenant-relative remainder and delegate.
func (r *Registry[T]) handleTenant(w http.ResponseWriter, req *http.Request) {
	r.serveTenant(w, req, req.PathValue("tenant"), "/"+req.PathValue("rest"))
}

// handleDefault serves the legacy single-tenant routes against the
// default tenant, or the tenant named by the X-Tenant header.
func (r *Registry[T]) handleDefault(w http.ResponseWriter, req *http.Request) {
	name := req.Header.Get("X-Tenant")
	if name == "" {
		name = DefaultTenantName
	}
	r.serveTenant(w, req, name, req.URL.Path)
}

// serveTenant pins the tenant resident (creating it when the request
// is a create-on-first-write POST) and delegates the request, path
// rewritten to the tenant-relative form, to the tenant's handler.
func (r *Registry[T]) serveTenant(w http.ResponseWriter, req *http.Request, name, path string) {
	create := req.Method == http.MethodPost && r.backend.CreatePaths[path]
	h, _, err := r.acquire(name, create, nil)
	if err != nil {
		r.writeErr(w, err)
		return
	}
	defer r.release(h)
	if path != req.URL.Path {
		r2 := req.Clone(req.Context())
		r2.URL.Path = path
		r2.URL.RawPath = ""
		req = r2
	}
	h.handler.ServeHTTP(w, req)
}

// handlePut creates (or idempotently re-asserts) a tenant, with an
// optional TenantConfig JSON body fixing its shape; 201 on creation,
// 200 when it already existed.
func (r *Registry[T]) handlePut(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("tenant")
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 1<<20))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var tc TenantConfig
	if len(bytes.TrimSpace(body)) > 0 {
		if tc, err = decodeTenantConfig(body); err != nil {
			http.Error(w, "tenant config: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	created, err := r.Create(name, tc)
	if err != nil {
		r.writeErr(w, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, map[string]any{"tenant": name, "created": created})
}

// handleInfo serves GET /t/{tenant}: paging state without loading the
// tenant — cold tenants stay cold under inspection. The generation is
// the last checkpoint the tenant's own MANIFEST commits (0 before the
// first).
func (r *Registry[T]) handleInfo(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("tenant")
	r.mu.Lock()
	h := r.tenants[name]
	known := h != nil && h.created
	resident := known && (h.state == stateResident || h.state == stateLoading)
	r.mu.Unlock()
	if !known {
		http.Error(w, "unknown tenant", http.StatusNotFound)
		return
	}
	m, _, err := persist.LoadManifest(r.tenantDir(name))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": name, "resident": resident, "generation": m.Generation})
}

// handleStats serves the registry-level GET /stats.
func (r *Registry[T]) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.Stats())
}

// writeErr maps registry errors onto HTTP statuses: bad names and
// tenant configs that cannot open 400, unknown tenants 404, draining
// and load failures 503 + Retry-After (retryable: the loader's disk
// may heal, the drain may be a failover).
func (r *Registry[T]) writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrInvalidName), errors.Is(err, ErrInvalidConfig):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, ErrUnknownTenant):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
