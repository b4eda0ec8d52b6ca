package main

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// toy shrinks every workload so that one round and one traced pass of
// all four stay within seconds under the race detector.
func toy(t *testing.T) {
	t.Helper()
	old := sizes
	sizes = map[string]sizing{
		"classify_deep":    {budget: 128, train: 300, held: 150, reads: 2, tail: 300, warm: 20, trace: 128, traceTail: 64},
		"classify_shallow": {budget: 4, train: 300, held: 150, reads: 2, tail: 300, warm: 20, trace: 128, traceTail: 64},
		"mixed_durable":    {budget: 32, train: 200, requests: 400, warm: 40, trace: 160},
		"cluster_stream":   {budget: 8, train: 1500, requests: 360, warm: 16, trace: 128},
	}
	t.Cleanup(func() { sizes = old })
}

func wire(seq []*request) []byte {
	var b bytes.Buffer
	for _, r := range seq {
		b.Write(r.wire)
	}
	return b.Bytes()
}

func TestGeneratorIsDeterministic(t *testing.T) {
	toy(t)
	for _, name := range workloadNames {
		a, err := newPlan(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(name, 7)
		c, _ := newPlan(name, 8)
		for _, seq := range []func(*plan) []*request{
			func(p *plan) []*request { return p.warm },
			func(p *plan) []*request { return p.main },
			func(p *plan) []*request { return p.tail },
		} {
			if !bytes.Equal(wire(seq(a)), wire(seq(b))) {
				t.Errorf("%s: the same seed gave different request bytes", name)
			}
		}
		if bytes.Equal(wire(a.main), wire(c.main)) {
			t.Errorf("%s: different seeds gave the same request bytes", name)
		}
	}
}

func TestArithmetic(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	s := sorted(v)
	if !sort.Float64sAreSorted(s) || v[0] != 10 {
		t.Fatalf("sorted must copy: %v %v", s, v)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median(v[:5]); got != 8 {
		t.Errorf("median of five = %v, want 8", got)
	}
	for p, want := range map[float64]float64{50: 5, 99: 10, 90: 9, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := benchMetric{Name: "latency", Better: "lower", Bound: 0.10}
	higher := benchMetric{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		m    benchMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower beyond the bound", lower, steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{"slower within the bound", lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 50}, "ok"},
		{"rate fell", higher, steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{"rate rose", higher, steady, []float64{130, 131, 129, 130, 130}, "ok"},
		{"too noisy to tell", lower, []float64{60, 100, 140, 80, 120}, []float64{90, 130, 170, 110, 150}, "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSmoke runs one round and the traced ladder of every workload at
// toy sizes: no request may fail, the rungs must agree, and the metric
// names must be exactly those BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	toy(t)
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !equal(declared, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, binary runs %v", declared, workloadNames)
	}
	accuracy := map[string]float64{}
	for _, name := range workloadNames {
		p, err := newPlan(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		rr, err := p.round(dir, make([]result, max(len(p.main), len(p.tail), len(p.warm))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rr.failed > 0 || len(rr.problems) > 0 {
			t.Errorf("%s: %d of %d requests failed: %v", name, rr.failed, rr.attempted, rr.problems)
		}
		accuracy[name] = rr.values["accuracy"]
		rounds := map[string][]float64{}
		var got, want []string
		for _, m := range endToEnd {
			v, ok := rr.values[m[0]]
			if !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", name, m[0], v)
			}
			rounds[m[0]] = []float64{v}
			got = append(got, m[0]+" "+m[1])
		}
		for _, m := range bf.EndToEnd {
			want = append(want, m.Name+" "+m.Unit)
		}
		if !equal(got, want) {
			t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
		}

		lr, err := p.ladder(dir, rounds)
		if err != nil {
			t.Fatalf("%s: traced pass: %v", name, err)
		}
		if lr.failed > 0 || len(lr.problems) > 0 {
			t.Errorf("%s: traced pass: %d failed, %v", name, lr.failed, lr.problems)
		}
		got, want = nil, nil
		for _, m := range lr.metrics {
			got = append(got, m.name+" "+m.unit)
		}
		for _, m := range bf.PerLayer {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !equal(got, want) {
			t.Errorf("%s: per-layer metrics\n%v\nBENCHMARK.json declares\n%v", name, got, want)
		}
		if len(lr.spans) < len(slots)-1 {
			t.Errorf("%s: traced pass recorded %d spans", name, len(lr.spans))
		}
	}
	// The anytime property, two points of the curve.
	if deep, shallow := accuracy["classify_deep"], accuracy["classify_shallow"]; deep <= shallow {
		t.Errorf("accuracy at budget 128 (%v) is not above accuracy at budget 4 (%v)", deep, shallow)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
