package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords loads the records -out appended to path, grouped by
// workload; runs with --trace 1 carry no end-to-end metrics and are
// skipped.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the quartiles as a share of the median,
// the measure the driver accepts the benchmark by.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// verdict applies a metric's bound to the values of two sets of runs:
// worse when b's median is worse than a's by more than the bound; else
// unresolved when either side's own spread exceeds the bound and the
// sides' ranges overlap, so the runs could not have shown a change of
// the bound's size; else ok.
func verdict(m benchMetric, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = (ma - mb) / ma
	}
	sa, sb := sorted(a), sorted(b)
	overlap := sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
	switch {
	case overlap && max(spread(a), spread(b)) > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per workload and end-to-end metric for the
// two record files named in args and returns the exit code: 1 when any
// row is worse, 2 when the files cannot be compared.
func compareFiles(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two record files written with -out")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var sides [2]map[string][]record
	for i, path := range args {
		if sides[i], err = readRecords(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(w, "%-17s %-17s %13s %13s %8s %8s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "change", "spread a", "spread b", "bound", "verdict")
	names := make([]string, 0, len(sides[0]))
	for name := range sides[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a, b := sides[0][name], sides[1][name]
		if len(b) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-17s %-17s %13.6g %13.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n", name, m.Name,
				median(va), median(vb), 100*(median(vb)/median(va)-1), 100*spread(va), 100*spread(vb), 100*m.Bound, v)
		}
	}
	return code
}

func values(recs []record, name string) (v []float64) {
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}
