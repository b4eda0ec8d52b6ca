package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// rung is one step of the ladder: the same request sequence is executed
// once per rung, and the rungs are equivalent queries — the same request
// must give the same answer on every one, and cost less on each inner
// one. There is one freshly built system per rung, so every request is
// executed once on each system and no rung finds a model another rung
// mutated. The sequence is cut into blocks; within a block the rungs
// take turns, outermost first, and from block to block they move on to
// the next system, so a burst of interference, a drift in machine speed
// or one system's luck with memory layout falls on all rungs alike and
// cancels in the differences.
type rung int

const (
	rungNet    rung = iota // real loopback round trip
	rungHTTP               // Handler().ServeHTTP on a recorder
	rungServer             // the server's exported method
	rungModel              // the shard models' exported methods
	rungWAL                // wal.Log.Append of a same-size record, sibling of rungModel under a write
	numRungs
)

var rungNames = [numRungs]string{"net", "server.http", "server", "model", "wal"}

// slots are the turns of one block: the net rung twice, once with spans
// recorded and once without (their ratio is the tracing overhead), then
// the inner rungs. There is one system per slot.
var slots = []rung{rungNet, rungNet, rungHTTP, rungServer, rungModel}

// slotOf is the slot whose spans are a rung's.
var slotOf = [rungWAL]int{rungNet: 0, rungHTTP: 2, rungServer: 3, rungModel: 4}

const (
	// ladderBlock is how many requests a rung executes before the next
	// rung takes its turn.
	ladderBlock = 128
	// allocSample is how many requests after the traced prefix the inner
	// rungs execute with an exact allocation count taken around each.
	allocSample = 200
	// codecReps is how often the snapshot is encoded and decoded for the
	// persist medians.
	codecReps = 5
	// orderSlack is the share of the inner rung's median by which an
	// outer rung may undercut it before that counts as a violation:
	// where a layer adds a hundredth of what it encloses, the sign of
	// the difference is noise.
	orderSlack = 0.10
)

// span is one timed call, as written to --trace-out.
type span struct {
	Request int    `json:"request"` // index into the traced sequence; spans of one request share it
	Rung    string `json:"rung"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the traced pass began
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent"` // rung of the span of the same request that encloses this one
}

var spanNames = [rungWAL][4]string{
	rungNet:    {"POST /classify", "POST /insert", "POST /cluster", "GET /microclusters"},
	rungHTTP:   {"Handler.ServeHTTP /classify", "Handler.ServeHTTP /insert", "Handler.ServeHTTP /cluster", "Handler.ServeHTTP /microclusters"},
	rungServer: {"Server.Classify", "Server.Insert", "ClusterServer.Insert x batch", "ClusterServer.MicroClusters"},
	rungModel:  {"MultiTree.NewQuery..Close x shards", "MultiTree.Insert+RefreshSoA", "Tree.InsertCounted x batch", "Tree.MicroClusters x shards"},
}

type layerMetric struct {
	name, unit string
	value      float64
}

type ladderResult struct {
	metrics           []layerMetric
	spans             []span
	attempted, failed int
	// problems make the run incorrect; warnings are printed only. An
	// order violation is a warning: it is a judgement on timings, and a
	// run's correctness must not depend on how quiet the machine was.
	problems, warnings []string
}

// outcome is one executed request.
type outcome struct {
	t0, t1  time.Time
	a       answer
	size    int           // response body bytes (handler rung)
	refresh time.Duration // mirror-refresh part of a write (model rung)
	err     error
}

// station is one system with a way to execute a request at every rung.
type station struct {
	sys  sut
	exec [rungWAL]func(r *request) outcome
	tk   *ticker
	stop func()
}

// do executes r at rung g, brings the copy of the model that rung did
// not touch up to date, and keeps the system's decay clock.
func (st *station) do(g rung, r *request) outcome {
	o := st.exec[g](r)
	if o.err == nil && r.kind.write() {
		st.sys.shadow(r, g)
		st.tk.wrote(r.ops)
	}
	return o
}

// newStation builds a fresh system under dir, wires every rung to it and
// sends the warm-up requests through rung g.
func (p *plan) newStation(dir string, g rung) (*station, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sys, err := p.sp.build(dir, true)
	if err != nil {
		return nil, err
	}
	h := sys.handler()
	addr, stop, err := listen(h)
	if err != nil {
		sys.close()
		return nil, err
	}
	c, err := dial(addr)
	if err != nil {
		stop()
		sys.close()
		return nil, err
	}
	st := &station{sys: sys, stop: func() { c.close(); stop(); sys.close() }}
	st.tk = &ticker{every: int64(p.tickEvery), tick: func() { sys.tick(); sys.modelTick() }}
	st.exec[rungNet] = func(r *request) outcome {
		t0 := time.Now()
		lat, a, err := c.exchange(r)
		return outcome{t0: t0, t1: t0.Add(lat), a: a, err: err}
	}
	st.exec[rungHTTP] = func(r *request) outcome {
		method, ctype := "POST", "application/json"
		if r.kind == kindMicro {
			method = "GET"
		} else if r.kind == kindCluster {
			ctype = "application/x-ndjson"
		}
		req := httptest.NewRequest(method, kindPath[r.kind], bytes.NewReader(r.body))
		req.Header.Set("Content-Type", ctype)
		w := httptest.NewRecorder()
		o := outcome{t0: time.Now()}
		h.ServeHTTP(w, req)
		o.t1 = time.Now()
		if w.Code != http.StatusOK {
			o.a, o.err = noAnswer, fmt.Errorf("status %d: %.120q", w.Code, w.Body.Bytes())
			return o
		}
		o.size = w.Body.Len()
		o.a, o.err = parseAnswer(r, w.Body.Bytes())
		return o
	}
	st.exec[rungServer] = func(r *request) outcome {
		o := outcome{t0: time.Now()}
		o.a, o.err = sys.serve(r)
		o.t1 = time.Now()
		return o
	}
	st.exec[rungModel] = func(r *request) outcome {
		o := outcome{t0: time.Now()}
		o.a, o.refresh = sys.model(r)
		o.t1 = time.Now()
		return o
	}
	for _, r := range p.warm {
		if o := st.do(g, r); o.err != nil {
			st.stop()
			return nil, fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return st, nil
}

// ladderRun is one traced pass: what it executes, and what it recorded.
type ladderRun struct {
	p              *plan
	lr             *ladderResult
	traced, sample []*request
	reads, writes  []int // indices of traced, by kind
	stations       []*station
	// dur[k] holds slot k's span of every traced request, walDur the WAL
	// rung's and refresh the mirror refresh's inside the model rung's,
	// all in µs scaled to the reference machine by scale.
	dur                        [][]float64
	answers                    [][]answer
	walDur, refresh, respBytes []float64
	walRecord                  int64 // framed bytes of one logged record
	scale                      float64
}

// ladder runs the traced pass and derives the per-layer metrics. rounds
// holds what the timed rounds measured.
func (p *plan) ladder(tmp string, rounds map[string][]float64) (*ladderResult, error) {
	run := &ladderRun{p: p, lr: &ladderResult{}}
	run.traced = append(append([]*request(nil), p.main[:p.sz.trace]...), p.tail[:min(p.sz.traceTail, len(p.tail))]...)
	run.sample = append([]*request(nil), p.main[p.sz.trace:p.sz.trace+allocSample/2]...)
	if len(p.tail) > 0 {
		run.sample = append(run.sample, p.tail[p.sz.traceTail:p.sz.traceTail+allocSample/2]...)
	} else {
		run.sample = append(run.sample, p.main[p.sz.trace+allocSample/2:p.sz.trace+allocSample]...)
	}
	for i, r := range run.traced {
		if r.kind.write() {
			run.writes = append(run.writes, i)
		} else {
			run.reads = append(run.reads, i)
		}
	}
	run.stations = make([]*station, len(slots))
	defer func() {
		for _, st := range run.stations {
			if st != nil {
				st.stop()
			}
		}
	}()
	for k, g := range slots {
		var err error
		if run.stations[k], err = p.newStation(filepath.Join(tmp, fmt.Sprintf("station-%d", k)), g); err != nil {
			return nil, fmt.Errorf("station %d: %w", k, err)
		}
	}
	if err := run.execute(filepath.Join(tmp, "rung-wal")); err != nil {
		return nil, err
	}
	if err := run.derive(rounds); err != nil {
		return nil, err
	}
	return run.lr, nil
}

// execute sends the traced sequence through every rung, block by block,
// and records the spans.
func (run *ladderRun) execute(walDir string) error {
	lr, traced, stations := run.lr, run.traced, run.stations
	// The WAL rung appends records of the size the servers log; the
	// warm-up already logged some, if the system logs at all.
	var appendWAL func([]byte) error
	var payload []byte
	if appends, _, logged := stations[slotOf[rungServer]].sys.walStats(); appends > 0 {
		var closeWAL func()
		var overhead int64
		var err error
		if appendWAL, closeWAL, overhead, err = openWAL(walDir); err != nil {
			return err
		}
		defer closeWAL()
		run.walRecord = logged / appends
		payload = make([]byte, run.walRecord-overhead)
	}

	n := len(traced)
	run.dur, run.answers = make([][]float64, len(slots)), make([][]answer, len(slots))
	for k := range slots {
		run.dur[k], run.answers[k] = make([]float64, n), make([]answer, n)
	}
	run.walDur, run.refresh, run.respBytes = make([]float64, n), make([]float64, n), make([]float64, n)
	lr.spans = make([]span, 0, (len(slots)+1)*n) // no regrowth while the rungs are timed

	runtime.GC()
	ref := startSampler()
	defer ref.stop()
	epoch := time.Now()
	record := func(i int, g rung, name, parent string, t0, t1 time.Time) {
		lr.spans = append(lr.spans, span{i, rungNames[g], name, t0.Sub(epoch).Nanoseconds(), t1.Sub(epoch).Nanoseconds(), parent})
	}
	order := make([]int, len(slots))
	for b, lo := 0, 0; lo < n; b, lo = b+1, lo+ladderBlock {
		hi := min(lo+ladderBlock, n)
		for k := range order {
			order[k] = k
		}
		if b%2 == 1 {
			// The two net slots swap turns every block, so neither always
			// finds the path the other just warmed.
			order[0], order[1] = 1, 0
		}
		for _, k := range order {
			g, st := slots[k], stations[(k+b)%len(stations)]
			for i := lo; i < hi; i++ {
				r := traced[i]
				o := st.do(g, r)
				run.dur[k][i], run.answers[k][i] = us(o.t1.Sub(o.t0)), o.a
				if k == 0 {
					lr.attempted++
				}
				if o.err != nil {
					if k == 0 {
						lr.failed++
					}
					lr.problems = append(lr.problems, fmt.Sprintf("rung %s request %d: %v", rungNames[g], i, o.err))
					if len(lr.problems) > 20 {
						return fmt.Errorf("too many failed requests, last: %w", o.err)
					}
				}
				if k == 1 {
					continue // the net slot that records no spans
				}
				parent := ""
				if g > rungNet {
					parent = rungNames[g-1]
				}
				record(i, g, spanNames[g][r.kind], parent, o.t0, o.t1)
				if o.refresh > 0 {
					run.refresh[i] = us(o.refresh)
					record(i, g, "MultiTree.RefreshSoA", rungNames[g], o.t1.Add(-o.refresh), o.t1)
				}
				if g == rungHTTP {
					run.respBytes[i] = float64(o.size)
				}
			}
		}
		if payload == nil {
			continue
		}
		for i := lo; i < hi; i++ {
			if !traced[i].kind.write() {
				continue
			}
			t0 := time.Now()
			if err := appendWAL(payload); err != nil {
				return fmt.Errorf("wal rung: %w", err)
			}
			t1 := time.Now()
			run.walDur[i] = us(t1.Sub(t0))
			record(i, rungWAL, "Log.Append", rungNames[rungServer], t0, t1)
		}
	}

	// Scale every span to the reference machine, as the rounds are. The
	// rungs took turns, so one factor over the whole loop serves them all.
	ref.stop()
	run.scale = ref.scale(epoch, time.Now())
	for _, v := range append([][]float64{run.walDur, run.refresh}, run.dur...) {
		for i := range v {
			v[i] *= run.scale
		}
	}
	return nil
}

// derive checks that the rungs were equivalent and turns what execute
// recorded into the per-layer metrics.
func (run *ladderRun) derive(rounds map[string][]float64) error {
	p, lr, stations, scale := run.p, run.lr, run.stations, run.scale
	reads, writes, dur, answers := run.reads, run.writes, run.dur, run.answers

	// Equivalence: the answers agree slot to slot, and every system,
	// having executed every request once, ends in the same model.
	mismatches := 0
	for k := 0; k+1 < len(slots); k++ {
		for i := range run.traced {
			if !agree(answers[k][i], answers[k+1][i]) {
				mismatches++
				if mismatches <= 3 {
					lr.problems = append(lr.problems, fmt.Sprintf("request %d: rung %s answered %+v, rung %s %+v",
						i, rungNames[slots[k]], answers[k][i], rungNames[slots[k+1]], answers[k+1][i]))
				}
			}
		}
	}
	var snapshot []byte
	var encodeMs float64
	observations := stations[0].sys.observations()
	for k, st := range stations {
		var buf bytes.Buffer
		enc := make([]float64, codecReps)
		for i := range enc {
			buf.Reset()
			t0 := time.Now()
			if err := st.sys.snapshot(&buf); err != nil {
				return err
			}
			enc[i] = time.Since(t0).Seconds() * 1e3
		}
		if k == 0 {
			snapshot, encodeMs = buf.Bytes(), median(enc)*scale
		}
		if got := st.sys.observations(); got != observations || (p.exact && !bytes.Equal(buf.Bytes(), snapshot)) {
			mismatches++
			lr.problems = append(lr.problems, fmt.Sprintf("systems 0 and %d end in different models (%d and %d observations, snapshots of %d and %d bytes)",
				k, observations, got, len(snapshot), buf.Len()))
		}
	}
	if mismatches > 0 {
		lr.problems = append(lr.problems, fmt.Sprintf("%d answers or models differ between rungs", mismatches))
	}

	// Self times: a rung's median span minus the median of the span(s) it
	// encloses. Differences of medians telescope, so the self times of a
	// request's rungs add up to the net rung's median exactly.
	pick := func(v []float64, idx []int) []float64 {
		d := make([]float64, len(idx))
		for k, i := range idx {
			d[k] = v[i]
		}
		return d
	}
	med := func(g rung, idx []int) float64 { return median(pick(dur[slotOf[g]], idx)) }
	self := func(outer, inner rung, idx []int) float64 { return med(outer, idx) - med(inner, idx) }
	walWrite := median(pick(run.walDur, writes))
	violations := 0
	for _, idx := range [][]int{reads, writes} {
		for g := rungNet; g < rungModel; g++ {
			if outer, inner := med(g, idx), med(g+1, idx); outer < inner*(1-orderSlack) {
				violations++
				lr.warnings = append(lr.warnings, fmt.Sprintf("rung %s (%.1f us) is faster than the rung %s (%.1f us) it encloses",
					rungNames[g], outer, rungNames[g+1], inner))
			}
		}
	}

	// Exact allocation counts: each inner rung executes the sample on
	// the system of its slot.
	var allocs [rungWAL][2]float64
	for k := 2; k < len(slots); k++ {
		var err error
		if allocs[slots[k]], err = stations[k].sampleAllocs(slots[k], run.sample); err != nil {
			return fmt.Errorf("rung %s: %w", rungNames[slots[k]], err)
		}
	}
	var mc modelCounters
	for _, st := range stations {
		mc.add(st.sys.counters())
	}
	rows, dim, swept := stations[0].sys.nodeShape()
	sweepNs := sweepProbe(rows, dim) * scale

	// persist: decode system 0's snapshot. Recovery's reading of the
	// log: park system 0 and read back what its writes left.
	dec := make([]float64, codecReps)
	for i := range dec {
		t0 := time.Now()
		if err := p.sp.decode(snapshot); err != nil {
			return err
		}
		dec[i] = time.Since(t0).Seconds() * 1e3
	}
	decodeMs := median(dec) * scale
	recoverS := median(rounds["recover_s"])
	replayShare := 0.0
	if dirs := stations[0].sys.walDirs(); len(dirs) > 0 {
		if err := stations[0].sys.park(); err != nil {
			return err
		}
		records, took, err := walReplay(dirs)
		if err != nil {
			return err
		}
		// A round's recovery reads the records a whole round leaves.
		perRound := float64(p.sp.preloaded() + p.writesPerRound())
		replayShare = took.Seconds() * scale / float64(max(records, 1)) * perRound / recoverS
	}

	modelRead, modelWrite := med(rungModel, reads), med(rungModel, writes)
	var nodesRead, microCount float64
	for _, i := range reads {
		a := answers[slotOf[rungModel]][i]
		nodesRead += float64(max(a.nodesRead, 0))
		microCount += float64(a.count)
	}
	nodesRead, microCount = nodesRead/float64(len(reads)), microCount/float64(len(reads))
	termsPerRead := 0.0
	if swept {
		termsPerRead = nodesRead * float64(rows)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	all := append(append([]int(nil), reads...), writes...)

	add := func(name, unit string, v float64) { lr.metrics = append(lr.metrics, layerMetric{name, unit, v}) }
	add("net.read_self_us", "us", self(rungNet, rungHTTP, reads))
	add("net.write_self_us", "us", self(rungNet, rungHTTP, writes))
	add("server.http_read_self_us", "us", self(rungHTTP, rungServer, reads))
	add("server.http_write_self_us", "us", self(rungHTTP, rungServer, writes))
	add("server.read_self_us", "us", self(rungServer, rungModel, reads))
	add("server.write_self_us", "us", self(rungServer, rungModel, writes)-walWrite)
	add("model.read_us", "us", modelRead)
	add("model.write_us", "us", modelWrite)
	add("queue.wait_us", "us", median(rounds["read_p50_us"])-med(rungNet, reads))
	add("persist.encode_ms", "ms", encodeMs)
	add("persist.decode_ms", "ms", decodeMs)
	add("kernels.sweep_ns_per_term", "ns", sweepNs)
	add("kernels.terms_per_read", "count", termsPerRead)
	add("kernels.share_of_model_read", "share", ratio(sweepNs*termsPerRead/1e3, modelRead))
	add("core.nodes_read_per_op", "count", nodesRead)
	add("core.soa_hit_share", "share", ratio(float64(mc.soaHits), float64(mc.shardQueries)))
	add("core.soa_patch_share", "share", ratio(float64(mc.soaPatches), float64(mc.soaPatches+mc.soaRebuilds)))
	add("core.soa_refresh_share", "share", ratio(median(pick(run.refresh, writes)), modelWrite))
	add("clustree.nodes_visited_per_insert", "count", ratio(float64(mc.visited), float64(mc.inserts)))
	add("clustree.parked_share", "share", ratio(float64(mc.parked), float64(mc.inserts)))
	add("clustree.micro_clusters", "count", microCount)
	add("wal.share_of_server_write", "share", ratio(walWrite, med(rungServer, writes)))
	add("wal.bytes_per_record", "count", float64(run.walRecord))
	add("wal.appends_per_sync", "count", median(rounds["wal.appends_per_sync"]))
	add("wal.replay_share_of_recover", "share", replayShare)
	add("persist.snapshot_bytes_per_obs", "count", ratio(float64(len(snapshot)), float64(observations)))
	add("server.recover_self_share", "share", 1-ratio(decodeMs/1e3, recoverS))
	for _, l := range []struct {
		g    rung
		name string
	}{{rungModel, "model."}, {rungServer, "server."}, {rungHTTP, "server.http_"}} {
		add(l.name+"read_allocs", "count", allocs[l.g][0])
		add(l.name+"write_allocs", "count", allocs[l.g][1])
	}
	add("server.http_read_response_bytes", "count", median(pick(run.respBytes, reads)))
	add("trace.overhead_share", "share", median(pick(dur[0], all))/median(pick(dur[1], all))-1)
	add("trace.order_violations", "count", float64(violations))
	add("trace.answer_mismatches", "count", float64(mismatches))
	return nil
}

// agree compares the fields both rungs know.
func agree(a, b answer) bool {
	same := func(x, y int) bool { return x < 0 || y < 0 || x == y }
	return same(a.label, b.label) && same(a.granted, b.granted) && same(a.nodesRead, b.nodesRead)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// mallocs is the exact number of heap objects allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sampleAllocs executes the sample at rung g with an exact allocation
// count taken around every request, and returns the median per read and
// per write: a pool the collector happened to empty costs single
// requests an object or two, which a median does not see.
func (st *station) sampleAllocs(g rung, sample []*request) (perReadWrite [2]float64, err error) {
	var reads, writes []float64
	for _, r := range sample {
		m0 := mallocs()
		o := st.exec[g](r)
		m := float64(mallocs() - m0)
		if o.err != nil {
			return perReadWrite, fmt.Errorf("alloc sample: %w", o.err)
		}
		if r.kind.write() {
			writes = append(writes, m)
		} else {
			reads = append(reads, m)
		}
	}
	return [2]float64{median(reads), median(writes)}, nil
}

func (p *plan) writesPerRound() (ops int) {
	for _, seq := range [][]*request{p.warm, p.main, p.tail} {
		for _, r := range seq {
			if r.kind.write() {
				ops += r.ops
			}
		}
	}
	return ops
}

func (lr *ladderResult) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(lr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
