// Package kernels provides the kernel density estimators stored at the
// Bayes tree leaf level (Section 2.1 of the paper). A kernel is an
// influence function centred at a training object; the class-conditional
// density of a query is the average kernel influence over all objects of
// the class.
//
// The paper uses the Gaussian kernel throughout and names the Epanechnikov
// kernel as a future-work alternative (Section 4.1); both are implemented
// here behind a common interface so the Bayes tree can swap them.
package kernels

import (
	"math"

	"bayestree/internal/stats"
)

// Kernel evaluates the density contribution of a single training object.
// LogDensity and LogDensityObs are the unfrozen references; a query
// scores its leaves through the kernel frozen at its bandwidths
// (frozen.go), which agrees with them to rounding.
type Kernel interface {
	// LogDensity returns the log of the kernel density at x for a kernel
	// centred at center with per-dimension bandwidths h (standard
	// deviations). It must integrate to one over x.
	LogDensity(x, center, h []float64) float64
	// LogDensityObs returns the log marginal kernel density restricted
	// to the observed dimensions obs (nil = all dimensions) — the
	// missing-value support of Section 4.2. Product kernels marginalise
	// by dropping dimensions.
	LogDensityObs(x, center, h []float64, obs []int) float64
	// FreezeBandwidth returns the kernel with its bandwidth-derived
	// factors for bandwidths h precomputed (frozen.go), rewriting dst in
	// place when dst is this kernel frozen at as many bandwidths.
	FreezeBandwidth(dst FrozenKernel, h []float64) FrozenKernel
	// Name identifies the kernel in reports and flags.
	Name() string
}

// Gaussian is the Gaussian product kernel
//
//	K(x) = Π_d (2π h_d²)^(−1/2) exp(−(x_d−c_d)²/(2 h_d²)),
//
// i.e. a diagonal normal centred at the object — exactly the kernel used in
// the paper's consistent model hierarchy, which is what lets kernels and
// cluster-feature Gaussians mix in one frontier.
type Gaussian struct{}

// Name implements Kernel.
func (Gaussian) Name() string { return "gaussian" }

const log2Pi = 1.8378770664093453

// LogDensity implements Kernel.
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

// LogDensityObs implements Kernel.
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

// Epanechnikov is the product Epanechnikov kernel
//
//	K(u) = Π_d (3/4)(1−u_d²) for |u_d| ≤ 1, u_d = (x_d−c_d)/(√5 h_d),
//
// scaled so its standard deviation per dimension is h_d (the classical √5
// rescaling that makes bandwidths comparable with the Gaussian kernel).
// Outside the support the density is zero, so the log density is −Inf.
type Epanechnikov struct{}

// Name implements Kernel.
func (Epanechnikov) Name() string { return "epanechnikov" }

// LogDensity implements Kernel.
func (Epanechnikov) LogDensity(x, center, h []float64) float64 {
	var logp float64
	for i := range x {
		hv := h[i]
		if hv <= 0 {
			hv = math.Sqrt(stats.VarianceFloor)
		}
		s := hv * math.Sqrt(5)
		u := (x[i] - center[i]) / s
		if u <= -1 || u >= 1 {
			return math.Inf(-1)
		}
		logp += math.Log(0.75 * (1 - u*u) / s)
	}
	return logp
}

// LogDensityObs implements Kernel.
func (e Epanechnikov) LogDensityObs(x, center, h []float64, obs []int) float64 {
	if obs == nil {
		return e.LogDensity(x, center, h)
	}
	var logp float64
	for _, i := range obs {
		hv := h[i]
		if hv <= 0 {
			hv = math.Sqrt(stats.VarianceFloor)
		}
		s := hv * math.Sqrt(5)
		u := (x[i] - center[i]) / s
		if u <= -1 || u >= 1 {
			return math.Inf(-1)
		}
		logp += math.Log(0.75 * (1 - u*u) / s)
	}
	return logp
}

// ByName returns the kernel registered under name ("gaussian" or
// "epanechnikov") and whether the name was known.
func ByName(name string) (Kernel, bool) {
	switch name {
	case "gaussian", "":
		return Gaussian{}, true
	case "epanechnikov":
		return Epanechnikov{}, true
	}
	return nil, false
}
