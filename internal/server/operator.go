package server

import (
	"encoding/json"
	"net/http"

	"bayestree/internal/clustree"
)

// The operator surfaces — /stats here and at the proxy, /macroclusters
// and /window — are what a person or a prober reads now and then, not
// what a stream of objects passes through: no BENCHMARK.json row and no
// load harness reaches them, so they stay on encoding/json and its
// reflection, and their types stay out of internal/wire. A type has one
// codec: nothing that internal/wire encodes is passed to WriteJSON.

// WriteJSON answers status with v as one compact JSON document, encoded
// by encoding/json: for the operator surfaces only.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// MacroClusterJSON is the wire form of one macro cluster.
type MacroClusterJSON struct {
	Weight float64   `json:"weight"`
	Mean   []float64 `json:"mean"`
	Size   int       `json:"size"`
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
