// Package stats implements the statistical primitives of the Bayes tree:
// d-dimensional Gaussians with diagonal covariance, their densities and
// closed-form Kullback-Leibler divergence, cluster features (the (n, LS, SS)
// summaries stored in tree entries, Definition 1 of the paper), and the
// data-independent Silverman bandwidth rule used for the kernel estimators
// at leaf level (Section 2.1).
package stats

import "math"

// VarianceFloor is the smallest variance admitted per dimension. Cluster
// features of few or identical points can yield zero (or, through floating
// point cancellation, slightly negative) variances; densities would then be
// degenerate. Every variance that enters a density or divergence is clamped
// to at least this value.
const VarianceFloor = 1e-9

const log2Pi = 1.8378770664093453 // ln(2π)

// Gaussian is a d-dimensional normal distribution with diagonal covariance.
// Var holds the per-dimension variances (the σ² vector of the paper).
type Gaussian struct {
	Mean []float64
	Var  []float64
}

// Dim returns the dimensionality of the Gaussian.
func (g Gaussian) Dim() int { return len(g.Mean) }

// LogPDF returns the log density of x under g. Variances are clamped to
// the floor on the fly so that Gaussians built directly from cluster
// features remain safe.
func (g Gaussian) LogPDF(x []float64) float64 {
	var quad, logDet float64
	for i := range g.Mean {
		v := g.Var[i]
		if v < VarianceFloor {
			v = VarianceFloor
		}
		d := x[i] - g.Mean[i]
		quad += d * d / v
		logDet += math.Log(v)
	}
	return -0.5 * (float64(len(g.Mean))*log2Pi + logDet + quad)
}

// KL returns the Kullback-Leibler divergence KL(g || h) between two
// diagonal Gaussians in closed form:
//
//	KL = ½ Σ_d [ σg²/σh² + (μh-μg)²/σh² − 1 + ln(σh²/σg²) ]
//
// It is non-negative and zero iff the distributions coincide (up to the
// variance floor). The paper uses this divergence inside the Goldberger
// bulk-loading distance (Definition 4).
func KL(g, h Gaussian) float64 {
	var s float64
	for i := range g.Mean {
		vg := g.Var[i]
		if vg < VarianceFloor {
			vg = VarianceFloor
		}
		vh := h.Var[i]
		if vh < VarianceFloor {
			vh = VarianceFloor
		}
		dm := h.Mean[i] - g.Mean[i]
		s += vg/vh + dm*dm/vh - 1 + math.Log(vh/vg)
	}
	return 0.5 * s
}

// Exp is math.Exp without the call where it returns exactly 0: below
// −746, −Inf included (math.Exp is 0 at and below −745.1332191019412, in
// the assembly and the pure Go implementation alike). NaN still reaches
// math.Exp.
func Exp(x float64) float64 {
	if x < -746 {
		return 0
	}
	return math.Exp(x)
}

// LogSumExp returns ln(Σ exp(xs_i)) computed stably. An empty input yields
// -Inf (the log of zero).
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, x := range xs {
		s += Exp(x - m)
	}
	return m + math.Log(s)
}

// MergeLogScores is the one place a classification is assembled from
// partitions of a model: dst[c] becomes the log of the mixture
// Σ_p (weights[p]/totalW)·exp(parts[p][c]) over the parts in order, and
// the index of the highest merged score (the earliest on a tie) is
// returned. parts[p] holds partition p's per-class log scores, as long
// as dst; a nil part (a partition that was not queried) and a −Inf
// score (a class the partition holds no mass for) contribute nothing,
// and a class no part scores stays −Inf. CF additivity makes the union
// model exactly this size-weighted mixture of its partitions, so shards
// in a process and groups behind a proxy merge through this function
// alone — which is what makes every merged answer digit-identical
// across topologies: same terms, same order, and the log-sum-exp of a
// single term is that term bit for bit, so merging one part returns it.
func MergeLogScores(dst []float64, parts [][]float64, weights []float64, totalW float64) (best int) {
	// One scratch allocation: the parts' log mixture weights, then the
	// finite terms of the class being summed.
	scratch := make([]float64, 2*len(parts))
	logW, terms := scratch[:len(parts)], scratch[len(parts):]
	for p := range parts {
		if parts[p] != nil {
			logW[p] = math.Log(weights[p] / totalW)
		}
	}
	for c := range dst {
		terms = terms[:0]
		for p, scores := range parts {
			if scores != nil && !math.IsInf(scores[c], -1) {
				terms = append(terms, logW[p]+scores[c])
			}
		}
		dst[c] = LogSumExp(terms)
		if dst[c] > dst[best] {
			best = c
		}
	}
	return best
}

// SilvermanBandwidth returns the per-dimension kernel bandwidths (standard
// deviations) of Silverman's data-independent rule of thumb for a sample of
// size n in d dimensions with per-dimension standard deviations sigma:
//
//	h_i = sigma_i · (4 / (d+2))^(1/(d+4)) · n^(−1/(d+4))
//
// This is the "common data independent method according to [18]" of
// Section 2.1. The returned vector contains bandwidths h_i, not variances;
// square them for use as Gaussian kernel variances. They are written over
// sigma, which is returned.
func SilvermanBandwidth(sigma []float64, n int, d int) []float64 {
	if n < 1 {
		n = 1
	}
	if d < 1 {
		d = len(sigma)
	}
	exp := 1.0 / (float64(d) + 4.0)
	factor := math.Pow(4.0/(float64(d)+2.0), exp) * math.Pow(float64(n), -exp)
	for i, s := range sigma {
		if s <= 0 {
			s = math.Sqrt(VarianceFloor)
		}
		sigma[i] = s * factor
	}
	return sigma
}
