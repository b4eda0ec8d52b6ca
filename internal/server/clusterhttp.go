package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"bayestree/internal/clustree"
)

// HTTP surface of the clustering server:
//
//	POST /cluster        {"x":[...],"budget":3}           → ClusterResult JSON
//	POST /cluster        (NDJSON body, one object/line)   → NDJSON results
//	GET  /microclusters?minw=0.5                          → micro-cluster JSON
//	GET  /macroclusters?eps=0.12&minw=5                   → macro-cluster JSON
//	GET  /window?t1=100&t2=400&eps=0.12&minw=2&radius=0.1 → windowed macro clusters
//	GET  /stats                                           → ClusterStats JSON
//	GET  /healthz                                         → liveness: 200 once listening
//	GET  /readyz                                          → readiness: 503 + Retry-After until replay done / while draining
//	GET  /replicate                                       → replication stream (checkpoint + live WAL tail)
//
// On a follower, /cluster answers 307 with a Location on the primary;
// a fenced ex-primary answers 503.
//
// The NDJSON bulk form shares the classifier's windowed streaming
// machinery (see ndjsonStream): a client pipes an unbounded object
// stream through one connection and reads ingest acks while sending.

// clusterRequest is the JSON body of one ingest. Budget semantics
// match ClusterServer.Insert: 0 means the server default, negative
// means "as deep as the cap and admission allow".
type clusterRequest struct {
	X      []float64 `json:"x"`
	Budget int       `json:"budget"`
}

// clusterLineResponse is one NDJSON ingest ack: a ClusterResult on
// success, an Error on per-line failure (the stream keeps going).
type clusterLineResponse struct {
	ClusterResult
	Error string `json:"error,omitempty"`
}

// MicroClusterJSON is the wire form of one micro-cluster.
type MicroClusterJSON struct {
	Weight float64   `json:"weight"`
	Mean   []float64 `json:"mean"`
	Radius float64   `json:"radius"`
}

// MicroClusterList is the /microclusters response body, at a server and
// through the proxy (fields in the key order the wire has always had).
type MicroClusterList struct {
	Count         int                `json:"count"`
	MicroClusters []MicroClusterJSON `json:"micro_clusters"`
}

// MacroClusterJSON is the wire form of one macro cluster.
type MacroClusterJSON struct {
	Weight float64   `json:"weight"`
	Mean   []float64 `json:"mean"`
	Size   int       `json:"size"`
}

// Handler returns the HTTP handler serving the clustering endpoints.
func (s *ClusterServer) Handler() http.Handler {
	mux := s.mux()
	// Objects in one /cluster window are ingested by a small worker pool —
	// inserts to distinct shards proceed in parallel, each admitted
	// individually.
	mux.HandleFunc("/cluster", itemHandler(&s.engine, itemRoute[clusterRequest]{
		write:   true,
		workers: 8,
		badLine: "bad request line",
		serve:   func(req clusterRequest, _ bool) (any, error) { return s.Insert(req.X, req.Budget) },
		errLine: func(msg string) any { return clusterLineResponse{Error: msg} },
	}))
	mux.HandleFunc("/microclusters", getOnly(s.handleMicroClusters))
	mux.HandleFunc("/macroclusters", getOnly(s.handleMacroClusters))
	mux.HandleFunc("/window", getOnly(s.handleWindow))
	return mux
}

// QueryFloat parses a finite float query parameter, using def when
// absent. The proxy parses with it too, so both tiers reject the same
// requests.
func QueryFloat(r *http.Request, name string, def float64) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad %s %q", name, raw)
	}
	return v, nil
}

func (s *ClusterServer) handleMicroClusters(w http.ResponseWriter, r *http.Request) {
	minw, err := QueryFloat(r, "minw", 0)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mcs := s.MicroClusters(minw)
	out := make([]MicroClusterJSON, len(mcs))
	for i, m := range mcs {
		out[i] = MicroClusterJSON{Weight: m.Weight, Mean: m.Mean, Radius: m.Radius}
	}
	WriteJSON(w, http.StatusOK, MicroClusterList{Count: len(out), MicroClusters: out})
}

func (s *ClusterServer) handleMacroClusters(w http.ResponseWriter, r *http.Request) {
	eps, err1 := QueryFloat(r, "eps", 0.1)
	minw, err2 := QueryFloat(r, "minw", 1)
	for _, err := range []error{err1, err2} {
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	out, noise := MacroJSON(s.MicroClusters(0), eps, minw)
	WriteJSON(w, http.StatusOK, map[string]interface{}{
		"macro_clusters": out, "noise": noise, "eps": eps, "min_weight": minw,
	})
}

// handleWindow serves the pyramidal-store view: the macro clusters of
// the data that arrived between the retained snapshots closest to t1
// and t2 (CF subtractivity).
func (s *ClusterServer) handleWindow(w http.ResponseWriter, r *http.Request) {
	t1, err1 := QueryFloat(r, "t1", 0)
	t2, err2 := QueryFloat(r, "t2", 0)
	eps, err3 := QueryFloat(r, "eps", 0.1)
	minw, err4 := QueryFloat(r, "minw", 1)
	radius, err5 := QueryFloat(r, "radius", 0.1)
	for _, err := range []error{err1, err2, err3, err4, err5} {
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	mcs, err := s.Window(t1, t2, radius)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	macros, noise := MacroJSON(mcs, eps, minw)
	WriteJSON(w, http.StatusOK, map[string]interface{}{
		"macro_clusters": macros, "noise": noise,
		"t1": t1, "t2": t2, "micro_clusters": len(mcs),
	})
}

// MacroJSON runs the offline macro step over a micro-cluster set and
// shapes the one wire form /macroclusters and /window share.
func MacroJSON(mcs []clustree.MicroCluster, eps, minw float64) ([]MacroClusterJSON, int) {
	macros, noise := clustree.MacroClusters(mcs, clustree.MacroOptions{Eps: eps, MinWeight: minw})
	out := make([]MacroClusterJSON, len(macros))
	for i, m := range macros {
		out[i] = MacroClusterJSON{Weight: m.Weight, Mean: m.Mean, Size: len(m.Members)}
	}
	return out, len(noise)
}
