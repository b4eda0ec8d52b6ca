package stats

import (
	"fmt"
	"math"
)

// CF is the cluster feature of Definition 1: the number of objects n in a
// subtree, their linear sum LS and their squared sum SS (both per
// dimension). Cluster features are additive — the CF of a union of disjoint
// object sets is the component-wise sum of their CFs — which is what lets
// inner Bayes tree entries summarise whole subtrees and lets entries be
// merged, split and decayed cheaply.
//
// N is a float64 rather than an int so that the same summary supports the
// exponentially decayed weights of the anytime-clustering extension
// (Section 4.2), where object counts fade over time.
type CF struct {
	N  float64
	LS []float64
	SS []float64
}

// maxCoord bounds a coordinate's magnitude: its square, and the sum of
// squares a cluster feature keeps over some 10⁸ observations, stay
// finite.
const maxCoord = 1e150

// CheckPoint refuses an observation no model stores: a NaN or ±Inf
// coordinate, or one beyond ±1e150, whose square would overflow a
// cluster feature's SS. Every path that stores a point calls it before
// the point touches a model — or a log a replay must apply.
func CheckPoint(x []float64) error {
	for i, v := range x {
		if !(math.Abs(v) <= maxCoord) {
			return fmt.Errorf("coordinate %d is %v, outside ±%g", i, v, maxCoord)
		}
	}
	return nil
}

// NewCF returns an empty cluster feature of dimension d.
func NewCF(d int) CF {
	return CF{LS: make([]float64, d), SS: make([]float64, d)}
}

// CFOfAll returns the cluster feature summarising all given objects, which
// must share the dimension d.
func CFOfAll(xs [][]float64, d int) CF {
	cf := NewCF(d)
	for _, x := range xs {
		cf.Add(x)
	}
	return cf
}

// Dim returns the dimensionality of the cluster feature.
func (cf *CF) Dim() int { return len(cf.LS) }

// IsEmpty reports whether the cluster feature summarises no mass.
func (cf *CF) IsEmpty() bool { return cf.N <= 0 }

// Clone returns a deep copy of the cluster feature.
func (cf *CF) Clone() CF {
	out := CF{N: cf.N, LS: make([]float64, len(cf.LS)), SS: make([]float64, len(cf.SS))}
	copy(out.LS, cf.LS)
	copy(out.SS, cf.SS)
	return out
}

// Add absorbs a single object into the cluster feature.
func (cf *CF) Add(x []float64) {
	cf.N++
	for i, v := range x {
		cf.LS[i] += v
		cf.SS[i] += v * v
	}
}

// AddWeighted absorbs an object with fractional weight w (used by the
// decayed clustering extension).
func (cf *CF) AddWeighted(x []float64, w float64) {
	cf.N += w
	for i, v := range x {
		cf.LS[i] += w * v
		cf.SS[i] += w * v * v
	}
}

// Merge absorbs another cluster feature (the CF additivity property);
// one without vectors adds only its count.
func (cf *CF) Merge(other CF) {
	cf.N += other.N
	for i := range other.LS {
		cf.LS[i] += other.LS[i]
		cf.SS[i] += other.SS[i]
	}
}

// Subtract removes another cluster feature. The caller must guarantee that
// other is a sub-summary of cf; small negative residues from floating point
// cancellation are clamped when densities are derived, not here.
func (cf *CF) Subtract(other CF) {
	cf.N -= other.N
	for i := range cf.LS {
		cf.LS[i] -= other.LS[i]
		cf.SS[i] -= other.SS[i]
	}
}

// Reset empties the cluster feature in place, keeping its vectors.
func (cf *CF) Reset() {
	cf.N = 0
	clear(cf.LS)
	clear(cf.SS)
}

// Scale multiplies the whole summary by factor w, implementing the
// exponential decay of the clustering extension: decaying a CF by 2^(-λΔt)
// is exactly Scale(2^(-λΔt)).
func (cf *CF) Scale(w float64) {
	cf.N *= w
	for i := range cf.LS {
		cf.LS[i] *= w
		cf.SS[i] *= w
	}
}

// Mean returns μ = LS/n. It returns a zero vector for an empty feature.
func (cf *CF) Mean() []float64 { return cf.MeanInto(make([]float64, len(cf.LS))) }

// MeanInto writes μ = LS/n into dst, which must have the feature's
// dimension, and returns it; dst is zeroed for an empty feature.
func (cf *CF) MeanInto(dst []float64) []float64 {
	if cf.N <= 0 {
		clear(dst)
		return dst
	}
	inv := 1 / cf.N
	for i, v := range cf.LS {
		dst[i] = v * inv
	}
	return dst
}

// Variance returns σ² = SS/n − (LS/n)² per dimension, clamped to the
// variance floor so the result is always usable as a Gaussian covariance
// diagonal.
func (cf *CF) Variance() []float64 { return cf.VarianceInto(make([]float64, len(cf.SS))) }

// VarianceInto writes Variance into dst, which must have the feature's
// dimension, and returns it.
func (cf *CF) VarianceInto(dst []float64) []float64 {
	inv := 1 / cf.N
	for i := range dst {
		dst[i] = cf.varianceAt(i, inv)
	}
	return dst
}

// varianceAt is dimension i of Variance, given inv = 1/N (not read for
// an empty feature, whose variance is the floor).
func (cf *CF) varianceAt(i int, inv float64) float64 {
	if cf.N <= 0 {
		return VarianceFloor
	}
	m := cf.LS[i] * inv
	v := cf.SS[i]*inv - m*m
	if v < VarianceFloor {
		v = VarianceFloor
	}
	return v
}

// Gaussian returns the Gaussian N(μ, σ²) summarised by the cluster
// feature — the mixture component an inner entry contributes to a
// probability density query.
func (cf *CF) Gaussian() Gaussian {
	return Gaussian{Mean: cf.Mean(), Var: cf.Variance()}
}

// Radius returns the root-mean-square distance of the summarised objects
// from their centroid, a standard compactness measure for cluster features.
func (cf *CF) Radius() float64 {
	if cf.N <= 0 {
		return 0
	}
	var s float64
	inv := 1 / cf.N
	for i := range cf.SS {
		m := cf.LS[i] * inv
		v := cf.SS[i]*inv - m*m
		if v > 0 {
			s += v
		}
	}
	return math.Sqrt(s)
}

// Validate checks internal consistency: finite components, matching
// dimensions and non-negative mass. It returns a descriptive error when the
// summary is broken, which the tree invariant checks rely on.
func (cf *CF) Validate() error {
	if len(cf.LS) != len(cf.SS) {
		return fmt.Errorf("stats: CF dims LS=%d SS=%d differ", len(cf.LS), len(cf.SS))
	}
	if math.IsNaN(cf.N) || math.IsInf(cf.N, 0) || cf.N < 0 {
		return fmt.Errorf("stats: CF has invalid count %v", cf.N)
	}
	for i := range cf.LS {
		if math.IsNaN(cf.LS[i]) || math.IsInf(cf.LS[i], 0) {
			return fmt.Errorf("stats: CF has non-finite LS[%d]", i)
		}
		if math.IsNaN(cf.SS[i]) || math.IsInf(cf.SS[i], 0) {
			return fmt.Errorf("stats: CF has non-finite SS[%d]", i)
		}
	}
	return nil
}
