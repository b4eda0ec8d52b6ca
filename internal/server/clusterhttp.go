package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"bayestree/internal/clustree"
	"bayestree/internal/wire"
)

// HTTP surface of the clustering server:
//
//	POST /cluster        {"x":[...],"budget":3}           → ClusterResult JSON
//	POST /cluster        (NDJSON body, one object/line)   → NDJSON results
//	GET  /microclusters?minw=0.5                          → micro-cluster JSON
//	GET  /macroclusters?eps=0.12&minw=5                   → macro-cluster JSON
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

// Handler returns the HTTP handler serving the clustering endpoints.
func (s *ClusterServer) Handler() http.Handler {
	mux := s.mux()
	// The objects of one /cluster window are ingested shard by shard
	// (ingestWindow): each shard's lines in line order under one hold of
	// its lock, the shards side by side, each object admitted individually.
	mux.HandleFunc("/cluster", itemHandler(&s.engine, itemRoute[wire.ClusterRequest, wire.ClusterResult]{
		write:   true,
		window:  s.ingestWindow,
		badLine: "bad request line",
		serve:   func(req wire.ClusterRequest, _ bool) (wire.ClusterResult, error) { return s.Insert(req.X, req.Budget) },
		errLine: func(dst []byte, msg string) []byte { return wire.ClusterLine{Error: msg}.AppendJSON(dst) },
	}))
	mux.HandleFunc("/microclusters", getOnly(s.handleMicroClusters))
	mux.HandleFunc("/macroclusters", getOnly(s.handleMacroClusters))
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
	// Straight from the model's clusters, no []MicroClusterJSON between,
	// copied into the server's spare set; a read that finds it taken by
	// another builds its own, and the last one done keeps its set.
	spare := s.spare.Swap(nil)
	if spare == nil {
		spare = new([]clustree.MicroCluster)
	}
	mcs := s.appendMicroClusters((*spare)[:0], minw)
	writeAppended(w, http.StatusOK, func(dst []byte) []byte {
		return wire.AppendMicroClusters(dst, len(mcs), func(i int) wire.MicroClusterJSON {
			return wire.MicroClusterJSON{Weight: mcs[i].Weight, Mean: mcs[i].Mean, Radius: mcs[i].Radius}
		})
	})
	*spare = mcs
	s.spare.Store(spare)
}
