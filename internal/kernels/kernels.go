// Package kernels provides the kernel density estimator stored at the
// Bayes tree leaf level (Section 2.1 of the paper). A kernel is an
// influence function centred at a training object; the class-conditional
// density of a query is the average kernel influence over all objects of
// the class.
//
// The paper uses the Gaussian kernel throughout, and it is the only
// leaf kernel here: Gaussian kernels and the inner entries'
// cluster-feature Gaussians form one model hierarchy, which is what
// lets a frontier mix the two levels. A query scores its leaves through
// the kernel frozen at its bandwidths (frozen.go).
package kernels

import (
	"math"

	"bayestree/internal/stats"
)

// Gaussian is the Gaussian product kernel
//
//	K(x) = Π_d (2π h_d²)^(−1/2) exp(−(x_d−c_d)²/(2 h_d²)),
//
// i.e. a diagonal normal centred at the object — exactly the kernel used in
// the paper's consistent model hierarchy, which is what lets kernels and
// cluster-feature Gaussians mix in one frontier. Its methods are the
// unfrozen references that the frozen kernel (frozen.go) agrees with to
// rounding.
type Gaussian struct{}

const log2Pi = 1.8378770664093453

// LogDensity returns the log of the kernel density at x for a kernel
// centred at center with per-dimension bandwidths h (standard
// deviations).
func (Gaussian) LogDensity(x, center, h []float64) float64 {
	var quad, logDet float64
	for i := range x {
		hv := h[i]
		if hv <= 0 {
			hv = math.Sqrt(stats.VarianceFloor)
		}
		v := hv * hv
		d := x[i] - center[i]
		quad += d * d / v
		logDet += math.Log(v)
	}
	return -0.5 * (float64(len(x))*log2Pi + logDet + quad)
}

// LogDensityObs returns the log marginal kernel density restricted to
// the observed dimensions obs (nil = all dimensions) — the missing-value
// support of Section 4.2. A product kernel marginalises by dropping
// dimensions.
func (g Gaussian) LogDensityObs(x, center, h []float64, obs []int) float64 {
	if obs == nil {
		return g.LogDensity(x, center, h)
	}
	var quad, logDet float64
	for _, i := range obs {
		hv := h[i]
		if hv <= 0 {
			hv = math.Sqrt(stats.VarianceFloor)
		}
		v := hv * hv
		d := x[i] - center[i]
		quad += d * d / v
		logDet += math.Log(v)
	}
	return -0.5 * (float64(len(obs))*log2Pi + logDet + quad)
}
