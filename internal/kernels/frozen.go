package kernels

import (
	"math"

	"bayestree/internal/stats"
)

// The leaf kernels of a Bayes tree share one data-independent bandwidth
// vector per tree (Section 2.1), yet the generic Kernel interface
// recomputes every bandwidth-derived factor — h², 1/h², ln h², the √5
// Epanechnikov rescaling — for every training object of every leaf read,
// for every query. A FrozenKernel precomputes those factors once per
// (kernel, bandwidth) pair; the anytime query freezes the kernel when the
// per-tree query constants are built, so the leaf-level hot loop performs
// only subtract-multiply-accumulate work.

// FrozenKernel evaluates a kernel whose bandwidth-derived constants are
// precomputed.
type FrozenKernel interface {
	// LogDensity returns the log kernel density at x for a kernel centred
	// at center, equal to the source kernel's LogDensity with the frozen
	// bandwidths.
	LogDensity(x, center []float64) float64
	// LogDensityObs is the marginal restricted to the observed dimensions
	// (nil = all).
	LogDensityObs(x, center []float64, obs []int) float64
}

// FrozenGaussianKernel holds 1/h², ln h² and the full-dimensional
// log-normaliser −½(D·ln 2π + Σ ln h²). It is exported so that a leaf
// refinement can call it without dynamic dispatch (LogDensityPair).
type FrozenGaussianKernel struct {
	invVar  []float64
	logVar  []float64
	logNorm float64
}

// FreezeBandwidth implements Kernel.
func (Gaussian) FreezeBandwidth(dst FrozenKernel, h []float64) FrozenKernel {
	f, ok := dst.(*FrozenGaussianKernel)
	if !ok || len(f.invVar) != len(h) {
		blk := make([]float64, 2*len(h))
		f = &FrozenGaussianKernel{invVar: blk[:len(h):len(h)], logVar: blk[len(h):]}
	}
	var logDet float64
	for i, hv := range h {
		if hv <= 0 {
			hv = math.Sqrt(stats.VarianceFloor)
		}
		v := hv * hv
		f.invVar[i] = 1 / v
		lv := math.Log(v)
		f.logVar[i] = lv
		logDet += lv
	}
	f.logNorm = -0.5 * (float64(len(h))*log2Pi + logDet)
	return f
}

// LogDensity implements FrozenKernel.
func (f *FrozenGaussianKernel) LogDensity(x, center []float64) float64 {
	var quad float64
	inv := f.invVar
	for i, c := range center {
		d := x[i] - c
		quad += d * d * inv[i]
	}
	return f.logNorm - 0.5*quad
}

// LogDensityObs implements FrozenKernel.
func (f *FrozenGaussianKernel) LogDensityObs(x, center []float64, obs []int) float64 {
	if obs == nil {
		return f.LogDensity(x, center)
	}
	var quad, logDet float64
	for _, i := range obs {
		d := x[i] - center[i]
		quad += d * d * f.invVar[i]
		logDet += f.logVar[i]
	}
	return -0.5 * (float64(len(obs))*log2Pi + logDet + quad)
}

// frozenEpanechnikov holds 1/(√5·h) and Σ ln(0.75/(√5·h)); only the
// data-dependent ln(1−u²) remains per dimension at query time.
type frozenEpanechnikov struct {
	invS  []float64
	logQ  []float64 // per-dim ln(0.75/s), for marginals
	sumLQ float64
}

// FreezeBandwidth implements Kernel.
func (Epanechnikov) FreezeBandwidth(dst FrozenKernel, h []float64) FrozenKernel {
	f, ok := dst.(*frozenEpanechnikov)
	if !ok || len(f.invS) != len(h) {
		blk := make([]float64, 2*len(h))
		f = &frozenEpanechnikov{invS: blk[:len(h):len(h)], logQ: blk[len(h):]}
	}
	f.sumLQ = 0
	for i, hv := range h {
		if hv <= 0 {
			hv = math.Sqrt(stats.VarianceFloor)
		}
		s := hv * math.Sqrt(5)
		f.invS[i] = 1 / s
		lq := math.Log(0.75 / s)
		f.logQ[i] = lq
		f.sumLQ += lq
	}
	return f
}

func (f *frozenEpanechnikov) LogDensity(x, center []float64) float64 {
	logp := f.sumLQ
	for i, c := range center {
		u := (x[i] - c) * f.invS[i]
		if u <= -1 || u >= 1 {
			return math.Inf(-1)
		}
		logp += math.Log1p(-u * u)
	}
	return logp
}

func (f *frozenEpanechnikov) LogDensityObs(x, center []float64, obs []int) float64 {
	if obs == nil {
		return f.LogDensity(x, center)
	}
	var logp float64
	for _, i := range obs {
		u := (x[i] - center[i]) * f.invS[i]
		if u <= -1 || u >= 1 {
			return math.Inf(-1)
		}
		logp += f.logQ[i] + math.Log1p(-u*u)
	}
	return logp
}

// LogDensityPair returns f.LogDensity(x, a) and g.LogDensity(x, b), bit
// for bit: each quadratic form folds its own terms in dimension order,
// in one loop, so that the two dependency chains overlap. The centres
// have the same dimension.
func LogDensityPair(f, g *FrozenGaussianKernel, x, a, b []float64) (float64, float64) {
	x, b = x[:len(a)], b[:len(a)]
	fi, gi := f.invVar[:len(a)], g.invVar[:len(a)]
	var qa, qb float64
	for i, c := range a {
		da, db := x[i]-c, x[i]-b[i]
		qa += da * da * fi[i]
		qb += db * db * gi[i]
	}
	return f.logNorm - 0.5*qa, g.logNorm - 0.5*qb
}
