package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"bayestree/internal/core"
	"bayestree/internal/wire"
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
// treated as a streamed batch: requests are read line by line, a window
// of lines is decoded in parallel and answered by its route, and one
// response line is written per request line in order, flushed per
// window — so a client can pipe an unbounded stream through a single
// connection and read predictions while it is still sending.
//
// /stats, /healthz, /readyz and /replicate, the write guard and the
// body-or-NDJSON item route are the engine's: written once below, the
// same for every workload. A workload's Handler adds its model routes
// to engine.mux.
//
// The bodies of /classify, /insert and /cluster in both forms, every
// {"error":…} answer and /microclusters are internal/wire's: its types,
// its codec, no reflection. /stats and the other operator surfaces stay
// on encoding/json (operator.go).

// streamWindow is how many NDJSON lines are classified per parallel
// window; it bounds both latency-to-first-byte and per-window memory.
const streamWindow = 64

// maxItem is the longest single-item body, and the longest NDJSON line,
// a route reads.
const maxItem = 1 << 20

// ResolveBudget is the node budget req asks for under c's default and
// cap: CapBudget of a literal budget, ClampBudget otherwise.
func (c Config) ResolveBudget(req wire.ClassifyRequest) int {
	if req.Literal {
		return c.CapBudget(req.Budget)
	}
	return c.ClampBudget(req.Budget)
}

// Handler returns the HTTP handler serving the six endpoints:
// /classify, /insert, /stats, /healthz, /readyz and /replicate.
func (s *Server) Handler() http.Handler {
	mux := s.mux()
	// Windows of /classify lines are classified by a worker pool, each
	// item admitted individually.
	classify := func(req wire.ClassifyRequest, _ bool) (wire.Result, error) { return s.classifyWire(req) }
	mux.HandleFunc("/classify", itemHandler(&s.engine, itemRoute[wire.ClassifyRequest, wire.Result]{
		badLine: "bad request line",
		serve:   classify,
		window:  perLine(8, classify),
		errLine: func(dst []byte, msg string) []byte { return wire.ResultLine{Error: msg}.AppendJSON(dst) },
	}))
	// Inserts stay sequential — each takes its shard's write lock — but
	// the single connection amortises transport overhead for bulk ingest
	// while classifications keep flowing on other connections.
	insert := func(req wire.InsertRequest, stream bool) (wire.InsertAck, error) {
		if err := s.Insert(req.X, req.Label); err != nil {
			return wire.InsertAck{}, err
		}
		if stream {
			return wire.InsertAck{OK: true}, nil
		}
		return wire.InsertAck{Observations: s.Len(), OK: true}, nil
	}
	mux.HandleFunc("/insert", itemHandler(&s.engine, itemRoute[wire.InsertRequest, wire.InsertAck]{
		write:   true,
		badLine: "bad insert line",
		serve:   insert,
		window:  perLine(1, insert),
		errLine: func(dst []byte, msg string) []byte { return wire.Error{Error: msg}.AppendJSON(dst) },
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
	HandleHealth(mux, func() string {
		switch {
		case e.Recovering():
			return "recovering"
		case e.Draining():
			return "draining"
		}
		return ""
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
		r.URL.RawQuery != "" && r.URL.Query().Get("stream") == "1"
}

// bufPool recycles the buffers answers outside the item routes are
// encoded into.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteWire answers status with v in its wire form — with WriteError
// and WriteUnavailable, the response shapes the servers and the proxy
// in front of them share.
func WriteWire(w http.ResponseWriter, status int, v wire.Appender) {
	writeAppended(w, status, v.AppendJSON)
}

// writeAppended answers status with the JSON document encode appends,
// built in a pooled buffer.
func writeAppended(w http.ResponseWriter, status int, encode func(dst []byte) []byte) {
	buf := bufPool.Get().(*[]byte)
	*buf = encode((*buf)[:0])
	writeBody(w, status, *buf)
	bufPool.Put(buf)
}

// writeBody answers status with body, one encoded JSON document.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// WriteError answers status with {"error": message}.
func WriteError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	WriteWire(w, status, wire.Error{Error: fmt.Sprintf(format, args...)})
}

// WriteUnavailable is the 503 every transient condition (recovery,
// draining, an unroutable group behind the proxy) shares: Retry-After
// tells well-behaved clients and load balancers to come back instead of
// giving up or killing the process.
func WriteUnavailable(w http.ResponseWriter, format string, args ...interface{}) {
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusServiceUnavailable, format, args...)
}

// HandleHealth serves every tier's /healthz and /readyz on mux.
// /healthz is pure liveness: 200 as long as the process is up and
// listening, even mid-recovery — so orchestrators do not kill a process
// that is busy replaying its WAL. /readyz is what load balancers route
// on: 200 when notReady returns "", otherwise the uniform not-ready
// answer — plain-text 503 with Retry-After and the reason as its body,
// the same shape whatever the reason (recovering, draining, a follower
// awaiting bootstrap, a proxy group without a healthy backend) — so
// probers back off uniformly.
func HandleHealth(mux *http.ServeMux, notReady func() string) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if reason := notReady(); reason != "" {
			w.Header().Set("Retry-After", "1")
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
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
func (s *Server) classifyWire(req wire.ClassifyRequest) (Result, error) {
	res, err := s.classifyResolved(req.X, s.cfg.ResolveBudget(req))
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

// exchange is the memory one request on an item route works in, pooled
// per route: the stream's buffers (a single body is read into in and
// answered from out too) and, a slot per line of an NDJSON window (a
// single body uses the first), the request being decoded — here because
// a request declared where it is decoded would be allocated per line —
// and its answer or its failure; and, for a route that ingests a window
// shard by shard, each shard's list of line indices.
type exchange[Q any, A wire.Appender] struct {
	streamBufs
	reqs   []Q
	res    []A
	errs   []error
	groups [][]int
}

// streamBufs is what ndjsonStream works in, kept from one request to
// the next: the scanner's buffer, a window's lines and the bytes they
// are slices of, and the window's answer.
type streamBufs struct {
	scan, in, out []byte
	lines         [][]byte
}

// ndjsonStream drives the windowed NDJSON form every bulk endpoint
// shares: request lines are read and gathered into windows of up to
// streamWindow lines, each window is handed to process, which appends
// exactly one response line per request line, in order, and the
// window's responses are written and flushed at once — so a client can
// pipe an unbounded stream through a single connection and read answers
// while it is still sending. A scanner error (oversized line, broken
// body) would otherwise end the stream silently with fewer response
// lines than request lines; errLine appends the terminal error line that
// lets the client tell truncation from completion.
func ndjsonStream(w http.ResponseWriter, r *http.Request, b *streamBufs,
	process func(lines [][]byte, out []byte) []byte, errLine func(dst []byte, msg string) []byte) {
	enableFullDuplex(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	write := func(out []byte) bool {
		_, err := w.Write(out)
		if flusher != nil {
			flusher.Flush()
		}
		return err == nil
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(b.scan, maxItem)
	b.in, b.lines = b.in[:0], b.lines[:0]
	for more := true; more; {
		// A line is copied out of the scanner, which moves on, to the end
		// of in. Should that outgrow its array, the lines gathered so far
		// keep the old one: it is not written to again.
		if more = sc.Scan(); more {
			if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
				b.in = append(b.in, line...)
				b.lines = append(b.lines, b.in[len(b.in)-len(line):])
			}
		}
		if len(b.lines) == streamWindow || !more && len(b.lines) > 0 {
			b.out = process(b.lines, b.out[:0])
			b.in, b.lines = b.in[:0], b.lines[:0]
			if !write(b.out) {
				return // the client went away
			}
		}
	}
	if err := sc.Err(); err != nil {
		write(errLine(b.out[:0], fmt.Sprintf("request stream: %v", err)))
	}
}

// ReadItem reads a single-item request body, of at most maxItem bytes,
// into buf's array (grown as needed, and returned for the next request)
// and decodes its first JSON value into v. Like a json.Decoder it takes
// that value even if the rest of the body did not arrive, and blames the
// reader only for a value it cut short.
func ReadItem(w http.ResponseWriter, r *http.Request, buf []byte, v wire.Value) ([]byte, error) {
	body, buf := http.MaxBytesReader(w, r.Body, maxItem), buf[:0]
	var rerr error
	for rerr == nil {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		var n int
		n, rerr = body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
	}
	if err := wire.DecodeBody(buf, v); err == nil || rerr == io.EOF {
		return buf, err
	}
	return buf, rerr
}

// itemRoute describes one POST endpoint that takes one JSON item per
// request body or, as NDJSON, one item per line: Q is the item's wire
// type, which brings its decoder, A the answer's, which appends itself.
type itemRoute[Q any, A wire.Appender] struct {
	// write routes pass the write guard before anything is read.
	write bool
	// badLine prefixes the error of a line that does not decode.
	badLine string
	// serve answers one decoded item; stream reports the NDJSON form.
	serve func(req Q, stream bool) (A, error)
	// window answers an NDJSON window of n decoded lines: x.res[i] and
	// x.errs[i] for each i < n whose x.errs[i] is nil (the line decoded).
	window func(x *exchange[Q, A], n int)
	// errLine appends a failed line's response (the stream keeps going).
	errLine func(dst []byte, msg string) []byte
}

// perLine is the window of a route that answers each line with serve,
// on a pool of up to workers goroutines; one keeps the lines in order.
func perLine[Q any, A wire.Appender](workers int, serve func(Q, bool) (A, error)) func(*exchange[Q, A], int) {
	return func(x *exchange[Q, A], n int) {
		core.ForEach(n, workers, func(i int) {
			if x.errs[i] == nil {
				x.res[i], x.errs[i] = serve(x.reqs[i], true)
			}
		})
	}
}

// itemHandler serves an itemRoute. A request is refused in fixed order:
// 405 for a non-POST, then for write routes 307 to the primary on a
// follower, 503 when fenced, 503 + Retry-After while recovering, and
// for every route 503 + Retry-After while draining.
func itemHandler[M Model, Q any, A wire.Appender, P interface {
	*Q
	wire.Value
}](e *engine[M], rt itemRoute[Q, A]) http.HandlerFunc {
	pool := &sync.Pool{New: func() any {
		return &exchange[Q, A]{
			streamBufs: streamBufs{scan: make([]byte, 0, 4096), lines: make([][]byte, 0, streamWindow)},
			reqs:       make([]Q, streamWindow), res: make([]A, streamWindow), errs: make([]error, streamWindow),
		}
	}}
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
		x := pool.Get().(*exchange[Q, A])
		defer pool.Put(x)
		if IsStream(r) {
			ndjsonStream(w, r, &x.streamBufs, func(lines [][]byte, out []byte) []byte {
				// Decode every line, taking no lock; the route answers those that decoded.
				core.ForEach(len(lines), 0, func(i int) {
					var zero Q
					x.reqs[i], x.errs[i] = zero, nil
					if err := wire.DecodeLine(lines[i], P(&x.reqs[i])); err != nil {
						x.errs[i] = fmt.Errorf("%s: %v", rt.badLine, err)
					}
				})
				rt.window(x, len(lines))
				for i := range lines {
					if err := x.errs[i]; err != nil {
						out = rt.errLine(out, err.Error())
					} else {
						out = x.res[i].AppendJSON(out)
					}
				}
				return out
			}, rt.errLine)
			return
		}
		var zero Q
		x.reqs[0] = zero
		var err error
		if x.in, err = ReadItem(w, r, x.in, P(&x.reqs[0])); err != nil {
			WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		res, err := rt.serve(x.reqs[0], false)
		switch {
		case err == nil:
			x.out = res.AppendJSON(x.out[:0])
			writeBody(w, http.StatusOK, x.out)
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
