// Command bench is the repository's benchmark: it serves the real
// internal/server handlers over loopback TCP from inside this process,
// drives them with a closed loop of its own, and (with --trace 1) times
// the exported entry points of every layer from outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// minRounds is the least number of rounds a run measures, however
	// short --seconds is.
	minRounds = 3
	// restoreReps is how often a round restarts from its snapshot file.
	restoreReps = 5
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what -out appends: the report, what produced it, and the
// values of every round behind each median.
type record struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  float64              `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Machine  string               `json:"machine"`
	Problems []string             `json:"problems,omitempty"`
	Warnings []string             `json:"warnings,omitempty"`
	Rounds   map[string][]float64 `json:"rounds"`
	report
}

// endToEnd names the end-to-end metrics in report order, with units.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"throughput_ops_s", "1/s"},
	{"read_p50_us", "us"}, {"read_p95_us", "us"},
	{"write_p50_us", "us"}, {"write_p95_us", "us"},
	{"accuracy", "share"}, {"recover_s", "s"}, {"heap_live_mb", "MiB"},
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 15, "how long to measure; rounds of a fixed request count repeat until it is used up")
	trace := flag.Int("trace", 0, "1 adds the traced ladder pass and reports the per-layer metrics")
	out := flag.String("out", "", "append the run's full record to this file, one JSON object a line")
	traceOut := flag.String("trace-out", ".bench_build/trace.json", "where --trace 1 writes its spans")
	compare := flag.Bool("compare", false, "compare two record files: -compare a.ndjson b.ndjson")
	flag.Parse()

	if *compare {
		os.Exit(compareFiles(flag.Args(), os.Stdout))
	}
	rec, err := run(*workload, *seed, *seconds, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	printTable(rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	line, _ := json.Marshal(rec.report) // a struct of numbers, strings and bools always encodes
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// run measures one workload: rounds until seconds are used up, then,
// when asked, the traced ladder.
func run(workload string, seed int64, seconds float64, trace bool, traceOut string) (*record, error) {
	p, err := newPlan(workload, seed)
	if err != nil {
		return nil, err
	}
	tmp, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	rec := &record{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Machine: machine(),
		Rounds: map[string][]float64{}}
	rec.Metrics = map[string]metric{}
	results := make([]result, max(len(p.main), len(p.tail), len(p.warm)))
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start).Seconds() < seconds; n++ {
		dir := filepath.Join(tmp, fmt.Sprintf("round-%d", n))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		rr, err := p.round(dir, results)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", n, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		rec.Attempted += rr.attempted
		rec.Failed += rr.failed
		rec.Problems = append(rec.Problems, rr.problems...)
		for name, v := range rr.values {
			rec.Rounds[name] = append(rec.Rounds[name], v)
		}
	}
	rec.Problems = append(rec.Problems, p.judge(rec)...)

	if trace {
		lad, err := p.ladder(tmp, rec.Rounds)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		rec.Attempted += lad.attempted
		rec.Failed += lad.failed
		rec.Problems = append(rec.Problems, lad.problems...)
		rec.Warnings = lad.warnings
		for _, m := range lad.metrics {
			rec.Metrics[m.name] = metric{m.value, m.unit}
		}
		if err := lad.writeSpans(traceOut); err != nil {
			return nil, err
		}
	} else {
		for _, m := range endToEnd {
			rec.Metrics[m[0]] = metric{median(rec.Rounds[m[0]]), m[1]}
		}
	}
	if rec.Failed > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d of %d requests failed", rec.Failed, rec.Attempted))
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, nil
}

// judge applies the output checks that span rounds.
func (p *plan) judge(rec *record) (problems []string) {
	acc := rec.Rounds["accuracy"]
	floor := map[string]float64{"classify_deep": 0.88, "classify_shallow": 0.60}[p.name]
	if a := median(acc); a < floor {
		problems = append(problems, fmt.Sprintf("accuracy %.4f below the %.2f this workload must reach", a, floor))
	}
	for _, n := range rec.Rounds["micro_clusters"] {
		if n < clusterBandLo || n > clusterBandHi {
			problems = append(problems, fmt.Sprintf("%v micro-clusters at the end of a round, outside the plateau band %d..%d", n, clusterBandLo, clusterBandHi))
		}
	}
	if len(p.tail) > 0 {
		for _, a := range acc {
			if a != acc[0] {
				problems = append(problems, fmt.Sprintf("accuracy of a read-only workload differs between rounds: %v", acc))
				break
			}
		}
	}
	return problems
}

// roundResult is one round's value of every end-to-end metric.
type roundResult struct {
	values            map[string]float64
	attempted, failed int
	problems          []string
}

// round builds a fresh system, drives the workload's sequences at it
// and restores it from what it left on disk.
func (p *plan) round(dir string, results []result) (rr roundResult, err error) {
	rr.values = map[string]float64{}
	base := liveHeap()

	ref := startSampler()
	defer ref.stop()
	t0 := time.Now()
	sys, err := p.sp.build(dir, false)
	if err != nil {
		return rr, err
	}
	defer sys.close()
	addr, stop, err := listen(sys.handler())
	if err != nil {
		return rr, err
	}
	defer stop()
	conns := make([]*conn, clients)
	for i := range conns {
		if conns[i], err = dial(addr); err != nil {
			return rr, err
		}
		defer conns[i].close()
	}
	tk := &ticker{every: int64(p.tickEvery), tick: sys.tick}
	acked := p.sp.preloaded()
	var reads, writes []float64
	labelled, hits, opsDone := 0, 0, 0
	// drive sends one sequence and folds its results into the round.
	drive := func(seq []*request, timed bool) time.Duration {
		out := results[:len(seq)]
		wall := closedLoop(conns, seq, tk, out)
		worst := time.Duration(0)
		for i := range out {
			worst = max(worst, out[i].lat)
		}
		for i, r := range seq {
			res := &out[i]
			rr.attempted++
			if res.err != nil {
				rr.failed++
				res.lat = worst
				if rr.failed <= 3 {
					rr.problems = append(rr.problems, fmt.Sprintf("request failed: %v", res.err))
				}
			} else if r.kind.write() {
				acked += r.ops
			}
			if !timed {
				continue
			}
			if r.kind.write() {
				writes = append(writes, us(res.lat))
			} else {
				reads = append(reads, us(res.lat))
			}
			if res.err == nil {
				opsDone += r.ops
				if r.kind == kindClassify {
					labelled++
					if res.a.label == r.label {
						hits++
					}
				}
			}
		}
		return wall
	}
	drive(p.warm, false)
	t1 := time.Now()
	wall := drive(p.main, true)
	t2 := time.Now()
	drive(p.tail, true)
	t3 := time.Now()
	rr.values["heap_live_mb"] = (liveHeap() - base) / (1 << 20)

	if labelled > 0 {
		rr.values["accuracy"] = float64(hits) / float64(labelled)
	} else {
		acc, n, err := p.clusterQuality(conns[0])
		if err != nil {
			return rr, err
		}
		rr.values["accuracy"], rr.values["micro_clusters"] = acc, float64(n)
	}
	// Closing twice (here and deferred) is harmless for all three.
	for _, c := range conns {
		c.close()
	}
	stop()
	if appends, syncs, _ := sys.walStats(); syncs > 0 {
		rr.values["wal.appends_per_sync"] = float64(appends) / float64(syncs)
	}
	if got := sys.observations(); got != acked {
		rr.problems = append(rr.problems, fmt.Sprintf("model holds %d observations, %d were acknowledged", got, acked))
	}
	if err := sys.park(); err != nil {
		return rr, err
	}
	// A restart from a snapshot file can be repeated, and is: it takes
	// milliseconds, which one sample would leave to chance. Recovery of a
	// durable directory checkpoints, so it happens once.
	reps := restoreReps
	if len(sys.walDirs()) > 0 {
		reps = 1
	}
	t4 := time.Now()
	took := make([]float64, reps)
	for i := range took {
		start := time.Now()
		back, err := p.sp.restore(dir)
		if err != nil {
			return rr, fmt.Errorf("restore: %w", err)
		}
		took[i] = time.Since(start).Seconds()
		if got := back.observations(); got != acked {
			rr.problems = append(rr.problems, fmt.Sprintf("restored model holds %d observations, %d were acknowledged", got, acked))
		}
		back.close()
	}
	t5 := time.Now()
	ref.stop()

	// Every timing is scaled to the reference machine by what the
	// reference loop took while it was measured; writes are measured in
	// the tail where there is one.
	sort.Float64s(reads)
	sort.Float64s(writes)
	inMain, inWrites := ref.scale(t1, t2), ref.scale(t1, t2)
	if len(p.tail) > 0 {
		inWrites = ref.scale(t2, t3)
	}
	rr.values["setup_s"] = t1.Sub(t0).Seconds() * ref.scale(t0, t1)
	rr.values["throughput_ops_s"] = float64(opsDone) / wall.Seconds() / inMain
	rr.values["read_p50_us"], rr.values["read_p95_us"] = percentile(reads, 50)*inMain, percentile(reads, 95)*inMain
	rr.values["write_p50_us"], rr.values["write_p95_us"] = percentile(writes, 50)*inWrites, percentile(writes, 95)*inWrites
	rr.values["recover_s"] = median(took) * ref.scale(t4, t5)
	rr.values["ref_ns"] = refNominalNs / ref.scale(t0, t5)
	return rr, nil
}

// clusterQuality reads the whole model once more and returns the share
// of its weight that lies on a live source — within clusterHit of where
// a source stands at the end of the round — and the number of
// micro-clusters.
func (p *plan) clusterQuality(c *conn) (share float64, n int, err error) {
	status, body, err := c.do(p.micro.wire)
	if err != nil || status != 200 {
		return 0, 0, fmt.Errorf("final model read: status %d: %v", status, err)
	}
	var v struct {
		MicroClusters []struct {
			Weight float64   `json:"weight"`
			Mean   []float64 `json:"mean"`
		} `json:"micro_clusters"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, 0, err
	}
	var on, total float64
	for _, mc := range v.MicroClusters {
		if len(mc.Mean) != clusterDim {
			return 0, 0, fmt.Errorf("final model read: a micro-cluster of %d dimensions", len(mc.Mean))
		}
		near := math.Inf(1)
		for _, c := range p.centres {
			d := 0.0
			for i := range c {
				d += (c[i] - mc.Mean[i]) * (c[i] - mc.Mean[i])
			}
			near = math.Min(near, d)
		}
		total += mc.Weight
		if math.Sqrt(near) <= clusterHit {
			on += mc.Weight
		}
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("final model read returned no weight")
	}
	return on / total, len(v.MicroClusters), nil
}

// liveHeap is the heap in use after a collection, in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func machine() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// scratchDir makes the run's directory for durable state under
// .bench_build of the working directory, so nothing is written outside
// the checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(rec)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable writes every metric by name with its unit, and the values
// of the rounds behind each median, to standard error.
func printTable(rec *record) {
	w := os.Stderr
	fmt.Fprintf(w, "%s seed=%d seconds=%g (%s)\n", rec.Workload, rec.Seed, rec.Seconds, rec.Machine)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", name, m.Value, m.Unit)
		if rounds := rec.Rounds[name]; len(rounds) > 0 {
			fmt.Fprintf(w, " rounds %.6g", rounds)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  timings are scaled to a reference chunk of %d ns; it took %.0f ns in the rounds\n", refNominalNs, rec.Rounds["ref_ns"])
	fmt.Fprintf(w, "  requests attempted %d, failed %d\n", rec.Attempted, rec.Failed)
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
	for _, p := range rec.Warnings {
		fmt.Fprintln(w, "  warning:", p)
	}
}
