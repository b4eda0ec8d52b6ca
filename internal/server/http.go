package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"bayestree/internal/core"
)

// HTTP surface of the server:
//
//	POST /classify  {"x":[...],"budget":25}            → Result JSON
//	POST /classify  (NDJSON body, one request/line)    → NDJSON Results
//	POST /insert    {"x":[...],"label":2}              → {"ok":true,...}
//	POST /insert    (NDJSON body, one insert/line)     → NDJSON acks
//	GET  /stats                                        → Stats JSON
//	GET  /healthz                                      → liveness: 200 once listening
//	GET  /readyz                                       → readiness: 503 + Retry-After until replay done / while draining
//	GET  /replicate                                    → replication stream (checkpoint + live WAL tail)
//
// On a follower, write endpoints answer 307 with a Location on the
// primary; a fenced ex-primary answers 503.
//
// A body whose Content-Type mentions "ndjson" (or a ?stream=1 query) is
// treated as a streamed batch: requests are read line by line, windows
// of lines are classified in parallel, and one response line is written
// per request line in order, flushed per window — so a client can pipe
// an unbounded stream through a single connection and read predictions
// while it is still sending.
//
// /stats, /healthz, /readyz and /replicate, the write guard and the
// body-or-NDJSON item route are the engine's: written once below, the
// same for every workload. A workload's Handler adds its model routes
// to engine.mux.

// streamWindow is how many NDJSON lines are classified per parallel
// window; it bounds both latency-to-first-byte and per-window memory.
const streamWindow = 64

// ClassifyRequest is the JSON body of a classification request — the
// one a client sends to a server or to the proxy, and the one the proxy
// sends to its backends. Budget semantics match Server.Classify: 0
// means the server default, negative means "as much as the cap and
// admission allow".
type ClassifyRequest struct {
	X      []float64 `json:"x"`
	Budget int       `json:"budget"`
	// Scores asks for the merged per-class log scores, their label order
	// and the total weight in the response — the merge surface a
	// scatter-gather tier combines across groups.
	Scores bool `json:"scores"`
	// Literal makes Budget literal: 0 means zero refinement steps (the
	// coarsest answer) instead of the server default. The proxy sets it
	// so size-proportional splits that legitimately assign a group 0
	// nodes keep meaning 0.
	Literal bool `json:"literal_budget"`
}

// ResolveBudget is the node budget the request asks for under cfg's
// default and cap: CapBudget of a literal budget, ClampBudget otherwise.
func (r ClassifyRequest) ResolveBudget(cfg Config) int {
	if r.Literal {
		return cfg.CapBudget(r.Budget)
	}
	return cfg.ClampBudget(r.Budget)
}

// insertRequest is the JSON body of an insert request.
type insertRequest struct {
	X     []float64 `json:"x"`
	Label int       `json:"label"`
}

// lineResponse is one NDJSON response line: a Result on success, an
// Error on per-line failure (the stream keeps going either way).
type lineResponse struct {
	Result
	Error string `json:"error,omitempty"`
}

// Handler returns the HTTP handler serving the six endpoints:
// /classify, /insert, /stats, /healthz, /readyz and /replicate.
func (s *Server) Handler() http.Handler {
	mux := s.mux()
	// Windows of /classify lines are classified by a worker pool, each
	// item admitted individually.
	mux.HandleFunc("/classify", itemHandler(&s.engine, itemRoute[ClassifyRequest]{
		workers: 8,
		badLine: "bad request line",
		serve:   func(req ClassifyRequest, _ bool) (any, error) { return s.classifyWire(req) },
		errLine: func(msg string) any { return lineResponse{Error: msg} },
	}))
	// Inserts stay sequential — each takes its shard's write lock — but
	// the single connection amortises transport overhead for bulk ingest
	// while classifications keep flowing on other connections.
	mux.HandleFunc("/insert", itemHandler(&s.engine, itemRoute[insertRequest]{
		write:   true,
		workers: 1,
		badLine: "bad insert line",
		serve: func(req insertRequest, stream bool) (any, error) {
			if err := s.Insert(req.X, req.Label); err != nil {
				return nil, err
			}
			if stream {
				return map[string]interface{}{"ok": true}, nil
			}
			return map[string]interface{}{"ok": true, "observations": s.Len()}, nil
		},
		errLine: func(msg string) any { return map[string]interface{}{"error": msg} },
	}))
	return mux
}

// mux returns a mux serving the routes every workload answers alike —
// /stats, /healthz, /readyz and /replicate.
func (e *engine[M]) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", getOnly(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, e.wl.stats())
	}))
	// Pure liveness: 200 as long as the process is up and listening, even
	// mid-recovery — so orchestrators do not kill a process that is busy
	// replaying its WAL. Routability is /readyz's job.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	// Readiness: 503 + Retry-After while WAL replay is rebuilding the
	// model or the process is draining, 200 otherwise — the endpoint load
	// balancers should route on.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case e.Recovering():
			writeNotReady(w, "recovering")
		case e.Draining():
			writeNotReady(w, "draining")
		default:
			fmt.Fprintln(w, "ok")
		}
	})
	mux.HandleFunc("/replicate", e.handleReplicate)
	return mux
}

// getOnly answers anything but a GET with 405.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		h(w, r)
	}
}

// IsStream reports whether the request carries an NDJSON batch body.
func IsStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Content-Type"), "ndjson") ||
		r.URL.Query().Get("stream") == "1"
}

// WriteJSON answers status with v as one compact JSON document — with
// WriteError and WriteUnavailable, the response shapes the servers and
// the proxy in front of them share.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers status with {"error": message}.
func WriteError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteUnavailable is the 503 every transient condition (recovery,
// draining, an unroutable group behind the proxy) shares: Retry-After
// tells well-behaved clients and load balancers to come back instead of
// giving up or killing the process.
func WriteUnavailable(w http.ResponseWriter, format string, args ...interface{}) {
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusServiceUnavailable, format, args...)
}

// writeNotReady is the uniform not-ready /readyz answer: plain-text 503
// with Retry-After, the same shape whatever the reason (recovering,
// draining, a follower awaiting bootstrap) — so probers and load
// balancers back off uniformly.
func writeNotReady(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, reason, http.StatusServiceUnavailable)
}

// redirectToPrimary answers a write sent to a follower with a 307 to
// the same path on the primary — the method and body are preserved by
// conforming clients, so a retried insert lands where it belongs.
func redirectToPrimary(w http.ResponseWriter, r *http.Request, primary string) {
	w.Header().Set("Location", primary+r.URL.Path)
	WriteError(w, http.StatusTemporaryRedirect, "read-only follower: writes go to the primary at %s", primary)
}

// classifyWire serves one HTTP classify request: the budget resolved
// per the Literal flag, the merge surface (scores, weight, label order)
// attached only when the request asked for it.
func (s *Server) classifyWire(req ClassifyRequest) (Result, error) {
	res, err := s.classifyResolved(req.X, req.ResolveBudget(s.cfg))
	if err != nil {
		return res, err
	}
	if req.Scores {
		res.Labels = s.Labels()
	} else {
		res.Scores, res.Weight = nil, 0
	}
	return res, nil
}

// enableFullDuplex opts the connection out of the HTTP/1 server's
// default of consuming (closing) the unread request body as soon as
// the handler writes response bytes. The NDJSON endpoints interleave
// reading request lines with writing response lines on one connection;
// without full duplex, any body larger than the server's first read
// would be cut off mid-stream with "invalid Read on closed Body".
// HTTP/2 is always full duplex; the controller errors there and the
// error is safely ignored.
func enableFullDuplex(w http.ResponseWriter) {
	if rc := http.NewResponseController(w); rc != nil {
		rc.EnableFullDuplex()
	}
}

// ndjsonStream drives the windowed NDJSON form every bulk endpoint
// shares: request lines are read and batched into windows of up to
// streamWindow lines, each window is handed to process (which returns
// exactly one JSON-encodable response per line, in order), and the
// responses are written and flushed per window — so a client can pipe
// an unbounded stream through a single connection and read answers
// while it is still sending. A scanner error (oversized line, broken
// body) would otherwise end the stream silently with fewer response
// lines than request lines; errLine builds the terminal error line that
// lets the client tell truncation from completion.
func ndjsonStream(w http.ResponseWriter, r *http.Request,
	process func(lines []string) []interface{}, errLine func(msg string) any) {
	enableFullDuplex(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	window := make([]string, 0, streamWindow)

	emit := func() bool {
		if len(window) == 0 {
			return true
		}
		responses := process(window)
		for i := range responses {
			if err := enc.Encode(responses[i]); err != nil {
				return false // client went away
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		window = window[:0]
		return true
	}

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		window = append(window, line)
		if len(window) >= streamWindow {
			if !emit() {
				return
			}
		}
	}
	if !emit() {
		return
	}
	if err := sc.Err(); err != nil {
		enc.Encode(errLine(fmt.Sprintf("request stream: %v", err)))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// itemRoute describes one POST endpoint that takes one JSON item per
// request body or, as NDJSON, one item per line.
type itemRoute[R any] struct {
	// write routes pass the write guard before anything is read.
	write bool
	// workers sizes the pool that serves one NDJSON window; 1 keeps a
	// stream's items strictly sequential.
	workers int
	// badLine prefixes the error of a line that does not decode.
	badLine string
	// serve answers one decoded item; stream reports the NDJSON form.
	serve func(req R, stream bool) (any, error)
	// errLine shapes a failed line's response (the stream keeps going).
	errLine func(msg string) any
}

// itemHandler serves an itemRoute. A request is refused in fixed order:
// 405 for a non-POST, then for write routes 307 to the primary on a
// follower, 503 when fenced, 503 + Retry-After while recovering, and
// for every route 503 + Retry-After while draining.
func itemHandler[M Model, R any](e *engine[M], rt itemRoute[R]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if rt.write {
			if primary := e.followerRedirect(); primary != "" {
				redirectToPrimary(w, r, primary)
				return
			}
			if e.replFenced() {
				WriteError(w, http.StatusServiceUnavailable, "fenced: a newer primary (epoch %d) exists", e.repl.fencedBy.Load())
				return
			}
			if e.Recovering() {
				WriteUnavailable(w, "recovering: WAL replay in progress")
				return
			}
		}
		if e.Draining() {
			WriteUnavailable(w, "draining")
			return
		}
		if IsStream(r) {
			ndjsonStream(w, r, func(lines []string) []interface{} {
				responses := make([]interface{}, len(lines))
				core.ForEach(len(lines), rt.workers, func(i int) {
					var req R
					if err := json.Unmarshal([]byte(lines[i]), &req); err != nil {
						responses[i] = rt.errLine(fmt.Sprintf("%s: %v", rt.badLine, err))
					} else if res, err := rt.serve(req, true); err != nil {
						responses[i] = rt.errLine(err.Error())
					} else {
						responses[i] = res
					}
				})
				return responses
			}, rt.errLine)
			return
		}
		var req R
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		res, err := rt.serve(req, false)
		switch {
		case err == nil:
			WriteJSON(w, http.StatusOK, res)
		case errors.Is(err, errRecovering), errors.Is(err, errFenced), errors.Is(err, errFollower):
			// The state changed between the guard and the write: answer what
			// the guard would have, so proxies re-probe instead of giving up.
			WriteUnavailable(w, "%v", err)
		case errors.Is(err, errWAL):
			WriteError(w, http.StatusInternalServerError, "%v", err)
		default:
			WriteError(w, http.StatusBadRequest, "%v", err)
		}
	}
}
