// Package wire owns the request and response types of the hot serving
// routes — /classify, /insert, /cluster in both their single-body and
// NDJSON forms, /microclusters and the {"error":…} body — and their one
// production codec: an encoder that appends into the caller's buffer and
// a decoder that walks the bytes once, neither of them reflective. The
// servers, the proxy and the load generator all speak through it.
//
// The contract is encoding/json's, which the tests of this package keep
// as the oracle (the struct tags below are its specification and are not
// read outside tests):
//
//   - AppendJSON writes byte for byte what json.NewEncoder(w).Encode(v)
//     writes: key order, omitted empty fields, escaped strings, float
//     format, the trailing newline. The one departure is a value the
//     oracle refuses to write at all: a non-finite float outside a
//     ScoreList, where it is the rule, is written as null too.
//   - DecodeLine accepts and rejects what json.Unmarshal does and
//     DecodeBody what a json.Decoder's first Decode does, and both leave
//     the values the oracle leaves. Error texts are this package's own.
//
// The package imports nothing but the standard library's number and
// UTF-8 primitives, so every tier can import it.
package wire

// Appender is a wire type that writes itself.
type Appender interface {
	// AppendJSON appends the value to dst as one compact JSON document
	// and a newline.
	AppendJSON(dst []byte) []byte
}

// Value is a pointer to a wire type, for DecodeLine and DecodeBody.
type Value interface {
	shape() shape
}

// shape is the wire form of one object, stated once for the encoder and
// the decoder: its keys in order, each as it is written (quoted, with
// its colon), pointers to the fields they name (nine is the most a type
// has), and the members — a bit per index — the encoder leaves out when
// empty, as omitempty does.
type shape struct {
	keys []string
	at   [9]any
	omit uint
}

// ClassifyRequest is the JSON body of a classification request — the
// one a client sends to a server or to the proxy, and the one the proxy
// sends to its backends. Budget 0 means the server default, negative
// means "as much as the cap and admission allow".
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

var classifyRequestKeys = []string{`"x":`, `"budget":`, `"scores":`, `"literal_budget":`}

func (r *ClassifyRequest) shape() shape {
	return shape{keys: classifyRequestKeys, at: [9]any{&r.X, &r.Budget, &r.Scores, &r.Literal}}
}

// InsertRequest is the JSON body of a labelled insert.
type InsertRequest struct {
	X     []float64 `json:"x"`
	Label int       `json:"label"`
}

var insertRequestKeys = []string{`"x":`, `"label":`}

func (r *InsertRequest) shape() shape {
	return shape{keys: insertRequestKeys, at: [9]any{&r.X, &r.Label}}
}

// ClusterRequest is the JSON body of one clustering ingest. Budget is
// read as ClassifyRequest's is.
type ClusterRequest struct {
	X      []float64 `json:"x"`
	Budget int       `json:"budget"`
}

var clusterRequestKeys = []string{`"x":`, `"budget":`}

func (r *ClusterRequest) shape() shape {
	return shape{keys: clusterRequestKeys, at: [9]any{&r.X, &r.Budget}}
}

// Result is the outcome of one served classification.
type Result struct {
	// Label is the predicted class.
	Label int `json:"label"`
	// Requested is the node budget the request asked for (after capping).
	Requested int `json:"requested"`
	// Granted is what the admission controller allowed — under load this
	// drops toward zero and answers coarsen instead of queueing.
	Granted int `json:"granted"`
	// NodesRead is the refinement work actually spent; it can fall short
	// of Granted when the models exhaust early.
	NodesRead int `json:"nodes_read"`
	// Degraded reports that admission clipped this answer: Granted fell
	// short of Requested, so the answer came from a coarser model level
	// than asked for. This is the per-response load signal a client (or
	// the load harness) reads without touching /stats.
	Degraded bool `json:"degraded"`
	// Scores, Weight and Labels are the merge surface a scatter-gather
	// tier needs: Scores carries the combined per-class log scores
	// aligned with Labels, and Weight the total effective mass they were
	// mixed under. A size-weighted log-sum-exp over per-group (Scores,
	// Weight) pairs reproduces the in-process shard merge digit for
	// digit, because log-sum-exp of a single element is exact. Over HTTP
	// they are attached only when the request asks (`"scores":true`), so
	// existing wire responses are unchanged.
	Scores ScoreList `json:"scores,omitempty"`
	Weight float64   `json:"weight,omitempty"`
	Labels []int     `json:"labels,omitempty"`
}

// resultKeys are ResultLine's; a Result's are all but the last.
var resultKeys = []string{`"label":`, `"requested":`, `"granted":`, `"nodes_read":`, `"degraded":`,
	`"scores":`, `"weight":`, `"labels":`, `"error":`}

func (r *Result) shape() shape {
	return shape{keys: resultKeys[:8], omit: 0b1_1110_0000,
		at: [9]any{&r.Label, &r.Requested, &r.Granted, &r.NodesRead, &r.Degraded, &r.Scores, &r.Weight, &r.Labels}}
}

// ScoreList is a []float64 whose wire form maps non-finite values to
// null, and null back to -Inf (the only non-finite value the score
// merge produces): class log scores are legitimately -Inf for classes a
// partition holds no mass for, and JSON numbers cannot carry infinities.
type ScoreList []float64

// ResultLine is one NDJSON /classify response line: a Result on
// success, an Error beside zero result fields on per-line failure (the
// stream keeps going either way).
type ResultLine struct {
	Result
	Error string `json:"error,omitempty"`
}

func (l *ResultLine) shape() shape {
	s := l.Result.shape()
	s.keys, s.at[8] = resultKeys, &l.Error
	return s
}

// ClusterResult is the outcome of one served ingest.
type ClusterResult struct {
	// Shard is the shard the object was routed to.
	Shard int `json:"shard"`
	// Requested is the descent budget the request asked for (after
	// capping).
	Requested int `json:"requested"`
	// Granted is what the admission controller allowed — under load
	// this drops toward zero and objects park higher up instead of the
	// stream backing up.
	Granted int `json:"granted"`
	// NodesRead is the descent work actually spent: inner nodes stepped
	// through plus the terminal node (leaf or parking buffer) read at
	// the end. It falls short of Granted when the leaf was reached
	// early, and can exceed it by one for that terminal read — the
	// overage is debited from the admission bucket.
	NodesRead int `json:"nodes_read"`
	// Parked reports whether the object was buffered in an inner node
	// (to hitchhike leafward later) rather than reaching leaf level.
	Parked bool `json:"parked"`
	// Degraded reports that admission clipped this ingest's descent
	// budget (Granted < Requested) — the per-response overload signal.
	Degraded bool `json:"degraded"`
}

// clusterResultKeys are ClusterLine's; a ClusterResult's are all but
// the last.
var clusterResultKeys = []string{`"shard":`, `"requested":`, `"granted":`, `"nodes_read":`, `"parked":`, `"degraded":`, `"error":`}

func (r *ClusterResult) shape() shape {
	return shape{keys: clusterResultKeys[:6], omit: 0b100_0000,
		at: [9]any{&r.Shard, &r.Requested, &r.Granted, &r.NodesRead, &r.Parked, &r.Degraded}}
}

// ClusterLine is one NDJSON /cluster ingest ack: a ClusterResult on
// success, an Error beside zero result fields on per-line failure.
type ClusterLine struct {
	ClusterResult
	Error string `json:"error,omitempty"`
}

func (l *ClusterLine) shape() shape {
	s := l.ClusterResult.shape()
	s.keys, s.at[6] = clusterResultKeys, &l.Error
	return s
}

// InsertAck acknowledges an insert: {"observations":N,"ok":true} for a
// single body, N the model's size after it, and {"ok":true} for an
// NDJSON line, which leaves Observations zero.
type InsertAck struct {
	Observations int  `json:"observations,omitempty"`
	OK           bool `json:"ok"`
}

var insertAckKeys = []string{`"observations":`, `"ok":`}

func (a *InsertAck) shape() shape {
	return shape{keys: insertAckKeys, omit: 0b01, at: [9]any{&a.Observations, &a.OK}}
}

// Error is the {"error":"…"} document: the body of every non-200 JSON
// answer and a failed /insert line.
type Error struct {
	Error string `json:"error"`
}

var errorKeys = []string{`"error":`}

func (e *Error) shape() shape { return shape{keys: errorKeys, at: [9]any{&e.Error}} }

// MicroClusterJSON is the wire form of one micro-cluster.
type MicroClusterJSON struct {
	Weight float64   `json:"weight"`
	Mean   []float64 `json:"mean"`
	Radius float64   `json:"radius"`
}

var microClusterKeys = []string{`"weight":`, `"mean":`, `"radius":`}

func (m *MicroClusterJSON) shape() shape {
	return shape{keys: microClusterKeys, at: [9]any{&m.Weight, &m.Mean, &m.Radius}}
}

// MicroClusterList is the /microclusters response body, at a server and
// through the proxy (fields in the key order the wire has always had).
type MicroClusterList struct {
	Count         int                `json:"count"`
	MicroClusters []MicroClusterJSON `json:"micro_clusters"`
}

var microClusterListKeys = []string{`"count":`, `"micro_clusters":`}

func (l *MicroClusterList) shape() shape {
	return shape{keys: microClusterListKeys, at: [9]any{&l.Count, &l.MicroClusters}}
}
