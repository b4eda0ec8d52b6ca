package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// clients is the closed loop's width: the callers of this system (stream
// runners, the proxy) each wait for a reply, and the target machine has
// two cores. Each client keeps one keep-alive connection.
const clients = 2

// sizing is the one table of workload sizes. Every round sends the same
// pre-generated requests, so both sides of a comparison see identical
// bytes; counts are sized for a round of roughly 2.5 s on a 2-core
// sandbox, so that --seconds 15 measures 5 rounds.
type sizing struct {
	budget    int // node budget of every read (classifier) or ingest (cluster)
	train     int // observations in the model before the round starts
	held      int // classify rows: held-out points the reads cycle through
	reads     int // classify rows: passes over the held-out points per round
	requests  int // mixed and cluster rows: requests per round
	tail      int // inserts sent after the reads, timed apart (classify rows)
	warm      int // untimed requests that end set-up; its writes carry the tail of train
	trace     int // length of the main-sequence prefix the traced pass replays
	traceTail int // and of the tail
}

var sizes = map[string]sizing{
	"classify_deep":    {budget: 128, train: 8000, held: 2992, reads: 3, tail: 1000, warm: 200, trace: 1024, traceTail: 256},
	"classify_shallow": {budget: 4, train: 8000, held: 2992, reads: 12, tail: 1000, warm: 200, trace: 3072, traceTail: 256},
	"mixed_durable":    {budget: 32, train: 2000, requests: 10000, warm: 200, trace: 3072},
	"cluster_stream":   {budget: 8, train: 20000, requests: 4000, warm: 64, trace: 1024},
}

const (
	pendigitsShards = 4
	clusterDim      = 4
	clusterShards   = 4
	clusterBatch    = 64   // objects per NDJSON batch
	clusterSources  = 8    // drifting Gaussian sources
	clusterSigma    = 0.02 // their standard deviation per dimension
	clusterDrift    = 2e-6 // distance a source centre moves per object
	clusterLambda   = 0.001
	clusterMinW     = 0.5
	clusterTickObjs = 32 * clusterBatch // objects between maintenance ticks
	clusterReadOf   = 8                 // one request in this many is a read
	// clusterBand is the plateau the micro-cluster count must sit in at
	// the end of a round, clusterHit how far from a source centre a
	// micro-cluster's mean may lie and still summarise that source.
	clusterBandLo, clusterBandHi = 40, 600
	clusterHit                   = 2 * clusterSigma
)

// workloadNames fixes the order of the workloads; BENCHMARK.json lists
// them with the reason each exists.
var workloadNames = []string{"classify_deep", "classify_shallow", "mixed_durable", "cluster_stream"}

type reqKind uint8

const (
	kindClassify reqKind = iota
	kindInsert
	kindCluster
	kindMicro
)

func (k reqKind) write() bool { return k == kindInsert || k == kindCluster }

var kindPath = [...]string{"/classify", "/insert", "/cluster",
	"/microclusters?minw=" + strconv.FormatFloat(clusterMinW, 'g', -1, 64)}

// request is one pre-encoded HTTP request together with its arguments
// in the form the inner rungs of the ladder pass to the product's
// functions.
type request struct {
	kind reqKind
	wire []byte // the complete HTTP/1.1 request
	body []byte // its body, for the handler rung
	// ops is the number of operations the request carries: one, or the
	// lines of a batch.
	ops    int
	x      []float64
	label  int // ground truth of a classify, class of an insert
	budget int
	batch  [][]float64
}

// plan is a workload made concrete for one seed.
type plan struct {
	name string
	sz   sizing
	sp   spec
	// main is the timed sequence of a round, tail a sequence of writes
	// sent after it and timed apart (only where main has no writes),
	// warm the untimed requests that end set-up.
	main, tail, warm []*request
	// tickEvery runs a maintenance tick after every that many objects
	// written (0 = never).
	tickEvery int
	// exact says the rungs of the ladder must end in byte-identical
	// snapshots; otherwise only in the same observation count.
	exact bool
	// micro is the cluster row's whole-model read, centres where its
	// sources stand when main ends.
	micro   *request
	centres [][]float64
}

func appendPoint(b []byte, x []float64) []byte {
	b = append(b, `{"x":[`...)
	for i, v := range x {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

func newRequest(kind reqKind, body []byte) *request {
	method, ctype := "POST", "application/json"
	switch kind {
	case kindCluster:
		ctype = "application/x-ndjson"
	case kindMicro:
		method = "GET"
	}
	head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		method, kindPath[kind], ctype, len(body))
	wire := append([]byte(head), body...)
	return &request{kind: kind, wire: wire, body: wire[len(head):], ops: 1}
}

func classifyRequest(p point, budget int) *request {
	b := appendPoint(nil, p.x)
	b = append(b, `,"budget":`...)
	b = strconv.AppendInt(b, int64(budget), 10)
	r := newRequest(kindClassify, append(b, '}'))
	r.x, r.label, r.budget = p.x, p.label, budget
	return r
}

func insertRequest(p point) *request {
	b := appendPoint(nil, p.x)
	b = append(b, `,"label":`...)
	b = strconv.AppendInt(b, int64(p.label), 10)
	r := newRequest(kindInsert, append(b, '}'))
	r.x, r.label = p.x, p.label
	return r
}

func clusterRequest(batch [][]float64, budget int) *request {
	var b []byte
	for _, x := range batch {
		b = appendPoint(b, x)
		b = append(b, `,"budget":`...)
		b = strconv.AppendInt(b, int64(budget), 10)
		b = append(b, "}\n"...)
	}
	r := newRequest(kindCluster, b)
	r.batch, r.budget, r.ops = batch, budget, len(batch)
	return r
}

// newPlan generates the named workload's inputs from seed.
func newPlan(name string, seed int64) (*plan, error) {
	sz, ok := sizes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	p := &plan{name: name, sz: sz}
	if name == "cluster_stream" {
		clusterPlan(p, seed)
		return p, nil
	}
	pts, labels, err := pendigits(seed)
	if err != nil {
		return nil, err
	}
	if sz.train+sz.held > len(pts) {
		return nil, fmt.Errorf("%s: train %d and held %d exceed the %d points there are", name, sz.train, sz.held, len(pts))
	}
	cs := classSpec{train: pts[:sz.train], labels: labels, dim: len(pts[0].x), shards: pendigitsShards}
	p.exact = true
	held := pts[sz.train:]
	if name == "mixed_durable" {
		// Strict alternation of an insert of the next held-out point and
		// a classify of a point drawn from the whole data set.
		cs.durable = true
		rng := rand.New(rand.NewSource(seed))
		if sz.requests/2 > len(held) {
			return nil, fmt.Errorf("%s: %d inserts but %d points to insert", name, sz.requests/2, len(held))
		}
		draw := func() *request { return classifyRequest(pts[rng.Intn(len(pts))], sz.budget) }
		for i := 0; i < sz.requests/2; i++ {
			p.main = append(p.main, insertRequest(held[i]), draw())
		}
		// The last points of the training set arrive over HTTP.
		cs.train = pts[:sz.train-sz.warm/2]
		for _, pt := range pts[sz.train-sz.warm/2 : sz.train] {
			p.warm = append(p.warm, insertRequest(pt), draw())
		}
	} else {
		// Read-only: every round classifies each held-out point the
		// same number of times, so accuracy repeats exactly.
		held = held[:sz.held]
		reqs := make([]*request, len(held))
		for i, pt := range held {
			reqs[i] = classifyRequest(pt, sz.budget)
		}
		for c := 0; c < sz.reads; c++ {
			p.main = append(p.main, reqs...)
		}
		for _, pt := range held[:sz.tail] {
			p.tail = append(p.tail, insertRequest(pt))
		}
		p.warm = p.main[:sz.warm]
	}
	p.sp = cs
	return p, nil
}

// clusterPlan draws one object stream from slowly drifting Gaussian
// sources; its head warms the model in process, the rest is cut into
// NDJSON batches with a whole-model read after every few of them.
func clusterPlan(p *plan, seed int64) {
	sz := p.sz
	rng := rand.New(rand.NewSource(seed))
	centre := make([][]float64, clusterSources)
	step := make([][]float64, clusterSources)
	for s := range centre {
		centre[s] = make([]float64, clusterDim)
		step[s] = make([]float64, clusterDim)
		norm := 0.0
		for d := range centre[s] {
			centre[s][d] = 0.2 + 0.6*rng.Float64()
			step[s][d] = rng.NormFloat64()
			norm += step[s][d] * step[s][d]
		}
		for d := range step[s] {
			step[s][d] *= clusterDrift / math.Sqrt(norm)
		}
	}
	object := func() []float64 {
		s := rng.Intn(clusterSources)
		x := make([]float64, clusterDim)
		for d := range x {
			x[d] = centre[s][d] + clusterSigma*rng.NormFloat64()
		}
		for s := range centre {
			for d := range centre[s] {
				centre[s][d] += step[s][d]
			}
		}
		return x
	}
	micro := newRequest(kindMicro, nil)
	mix := func(n int) (seq []*request) {
		for i := 1; i <= n; i++ {
			if i%clusterReadOf == 0 {
				seq = append(seq, micro)
				continue
			}
			batch := make([][]float64, clusterBatch)
			for j := range batch {
				batch[j] = object()
			}
			seq = append(seq, clusterRequest(batch, sz.budget))
		}
		return seq
	}
	// The last objects of the warming stream arrive over HTTP.
	warmObjs := (sz.warm - sz.warm/clusterReadOf) * clusterBatch
	preload := make([][]float64, sz.train-warmObjs)
	for i := range preload {
		preload[i] = object()
	}
	p.warm = mix(sz.warm)
	p.main = mix(sz.requests)
	p.micro, p.centres = micro, centre
	p.tickEvery = clusterTickObjs
	p.sp = clusterSpec{preload: preload, dim: clusterDim, shards: clusterShards, budget: sz.budget,
		tickEvery: clusterTickObjs, lambda: clusterLambda, minWeight: clusterMinW}
}
