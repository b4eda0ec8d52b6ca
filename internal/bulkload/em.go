package bulkload

import (
	"fmt"
	"math"
	"math/rand"

	"bayestree/internal/stats"
)

// The expectation-maximisation fit for Gaussian mixtures with diagonal
// covariances (Dempster, Laird & Rubin [8]) that EMTopDown splits with,
// seeded by k-means++.

// The EM fit's fixed parameters: emIters bounds a run (plenty for
// splitting), emTol is the relative log-likelihood improvement below
// which it stops, and a component whose responsibility mass falls under
// emMinWeight·n is dropped as explaining almost nothing.
const (
	emIters     = 25
	emTol       = 1e-4
	emMinWeight = 1e-6
)

// emResult is a fitted mixture plus hard assignments of the input points.
type emResult struct {
	weights []float64
	comps   []stats.Gaussian
	assign  []int     // hard assignment per input point
	path    []float64 // per-iteration log-likelihood (monotone non-decreasing)
}

// clusters groups the input indices by their hard assignment; empty
// clusters are omitted.
func (r *emResult) clusters() [][]int {
	buckets := make(map[int][]int)
	for i, a := range r.assign {
		buckets[a] = append(buckets[a], i)
	}
	out := make([][]int, 0, len(buckets))
	for j := 0; j < len(r.comps); j++ {
		if len(buckets[j]) > 0 {
			out = append(out, buckets[j])
		}
	}
	return out
}

// emFit runs EM for k components on the points. It may return fewer than
// k components when some collapse (the paper relies on this: "If the EM
// returns less than m clusters, the biggest resulting cluster is split
// again"). It returns an error only for unusable inputs; numerical
// degeneracies are handled by dropping components.
func emFit(points [][]float64, k int, seed int64) (*emResult, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("em: no points")
	}
	d := len(points[0])
	if d == 0 {
		return nil, fmt.Errorf("em: zero-dimensional points")
	}
	if k < 1 {
		return nil, fmt.Errorf("em: K must be ≥ 1, got %d", k)
	}
	if k > n {
		k = n
	}
	minWeight := emMinWeight * float64(n)
	rng := rand.New(rand.NewSource(seed))

	// Seed with k-means++ centres and a shared initial variance.
	centers := kMeansPlusPlus(points, k, rng)
	all := stats.CFOfAll(points, d)
	globalVar := all.Variance()
	comps := make([]stats.Gaussian, k)
	weights := make([]float64, k)
	for j := 0; j < k; j++ {
		comps[j] = stats.Gaussian{Mean: append([]float64(nil), centers[j]...), Var: append([]float64(nil), globalVar...)}
		weights[j] = 1 / float64(k)
	}

	resp := make([][]float64, n)
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	logs := make([]float64, k)
	var path []float64
	prevLL := math.Inf(-1)
	for iters := 1; iters <= emIters; iters++ {
		// E step.
		var ll float64
		for i, x := range points {
			for j := 0; j < k; j++ {
				if weights[j] <= 0 {
					logs[j] = math.Inf(-1)
					continue
				}
				logs[j] = math.Log(weights[j]) + comps[j].LogPDF(x)
			}
			lse := stats.LogSumExp(logs)
			ll += lse
			for j := 0; j < k; j++ {
				if math.IsInf(logs[j], -1) {
					resp[i][j] = 0
				} else {
					resp[i][j] = math.Exp(logs[j] - lse)
				}
			}
		}
		path = append(path, ll)
		// M step.
		for j := 0; j < k; j++ {
			var nj float64
			for i := 0; i < n; i++ {
				nj += resp[i][j]
			}
			if nj < minWeight {
				weights[j] = 0 // drop degenerate component
				continue
			}
			mean := make([]float64, d)
			for i, x := range points {
				r := resp[i][j]
				if r == 0 {
					continue
				}
				for c := 0; c < d; c++ {
					mean[c] += r * x[c]
				}
			}
			for c := 0; c < d; c++ {
				mean[c] /= nj
			}
			variance := make([]float64, d)
			for i, x := range points {
				r := resp[i][j]
				if r == 0 {
					continue
				}
				for c := 0; c < d; c++ {
					dm := x[c] - mean[c]
					variance[c] += r * dm * dm
				}
			}
			for c := 0; c < d; c++ {
				variance[c] /= nj
				if variance[c] < stats.VarianceFloor {
					variance[c] = stats.VarianceFloor
				}
			}
			weights[j] = nj / float64(n)
			comps[j] = stats.Gaussian{Mean: mean, Var: variance}
		}
		renormalize(weights)
		if ll-prevLL <= emTol*math.Max(1, math.Abs(prevLL)) && iters > 1 {
			break
		}
		prevLL = ll
	}

	// Compact out dropped components and compute hard assignments.
	keep := make([]int, 0, k)
	for j := 0; j < k; j++ {
		if weights[j] > 0 {
			keep = append(keep, j)
		}
	}
	if len(keep) == 0 {
		// Total collapse: model everything with one component.
		return &emResult{weights: []float64{1}, comps: []stats.Gaussian{all.Gaussian()}, assign: make([]int, n), path: path}, nil
	}
	remap := make(map[int]int, len(keep))
	outW := make([]float64, len(keep))
	outC := make([]stats.Gaussian, len(keep))
	for newJ, oldJ := range keep {
		remap[oldJ] = newJ
		outW[newJ] = weights[oldJ]
		outC[newJ] = comps[oldJ]
	}
	renormalize(outW)
	assign := make([]int, n)
	for i := range points {
		best, bestV := keep[0], math.Inf(-1)
		for _, j := range keep {
			v := resp[i][j]
			if v > bestV {
				best, bestV = j, v
			}
		}
		assign[i] = remap[best]
	}
	return &emResult{weights: outW, comps: outC, assign: assign, path: path}, nil
}

func renormalize(w []float64) {
	var s float64
	for _, v := range w {
		s += v
	}
	if s <= 0 {
		return
	}
	for i := range w {
		w[i] /= s
	}
}

// kMeansPlusPlus picks k starting centres with the k-means++ D² weighting.
func kMeansPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	centers := make([][]float64, 0, k)
	first := points[rng.Intn(n)]
	centers = append(centers, first)
	d2 := make([]float64, n)
	for i, x := range points {
		d2[i] = sq(x, first)
	}
	for len(centers) < k {
		var total float64
		for _, v := range d2 {
			total += v
		}
		var next []float64
		if total <= 0 {
			next = points[rng.Intn(n)]
		} else {
			u := rng.Float64() * total
			var acc float64
			idx := n - 1
			for i, v := range d2 {
				acc += v
				if u <= acc {
					idx = i
					break
				}
			}
			next = points[idx]
		}
		centers = append(centers, next)
		for i, x := range points {
			if d := sq(x, next); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}
