package kernels

import (
	"math"

	"bayestree/internal/stats"
)

// The leaf kernels of a Bayes tree share one data-independent bandwidth
// vector per class (Section 2.1), yet the unfrozen Gaussian recomputes
// every bandwidth-derived factor — h², 1/h², ln h² — for every training
// object of every leaf read, for every query. A FrozenGaussianKernel
// precomputes those factors once per bandwidth vector; the anytime query
// freezes the kernel when the per-tree query constants are built, so the
// leaf-level hot loop performs only subtract-multiply-accumulate work.

// FrozenGaussianKernel is the Gaussian kernel at fixed bandwidths: it
// holds 1/h², ln h² and the full-dimensional log-normaliser
// −½(D·ln 2π + Σ ln h²).
type FrozenGaussianKernel struct {
	invVar  []float64
	logVar  []float64
	logNorm float64
}

// FreezeBandwidth returns the Gaussian kernel frozen at bandwidths h,
// rewriting f in place when f is frozen at as many bandwidths.
func FreezeBandwidth(f *FrozenGaussianKernel, h []float64) *FrozenGaussianKernel {
	if f == nil || len(f.invVar) != len(h) {
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

// LogDensity returns the log kernel density at x for a kernel centred
// at center, Gaussian.LogDensity at the frozen bandwidths.
func (f *FrozenGaussianKernel) LogDensity(x, center []float64) float64 {
	var quad float64
	inv := f.invVar
	for i, c := range center {
		d := x[i] - c
		quad += d * d * inv[i]
	}
	return f.logNorm - 0.5*quad
}

// LogDensityObs is the marginal restricted to the observed dimensions
// obs (nil = all), Gaussian.LogDensityObs at the frozen bandwidths.
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
