package stats

import "math"

// FrozenGaussian is an evaluation-optimised snapshot of a diagonal
// Gaussian. A cluster feature's Gaussian is immutable between inserts, yet
// the anytime query path evaluates it at every query — so the quantities a
// log-density needs are precomputed once here: the mean, the inverse
// variances (turning the per-dimension division into a multiply) and the
// log-normaliser
//
//	logNorm = −½ (D·ln 2π + Σ_d ln σ²_d),
//
// which removes every math.Log call from the hot path. LogPDF and
// LogPDFObs run one fused loop and allocate nothing.
//
// Variances are clamped to VarianceFloor at freeze time, exactly as
// Gaussian.LogPDF clamps on the fly, so a frozen Gaussian agrees with its
// source to floating-point reassociation error (see the equivalence tests).
type FrozenGaussian struct {
	Mean   []float64
	InvVar []float64 // 1/σ²_d, after flooring
	LogVar []float64 // ln σ²_d, after flooring (needed for marginals)
	// LogN is ln n of the source cluster feature (0 when frozen from bare
	// moments) — the mixture weight numerator, precomputed so the query
	// path does not take a log per entry.
	LogN float64
	// logNorm is −½(D·ln 2π + Σ ln σ²) — the full-dimensional normaliser.
	logNorm float64
}

// Dim returns the dimensionality of the frozen Gaussian.
func (f *FrozenGaussian) Dim() int { return len(f.Mean) }

// LogNorm returns the precomputed full-dimensional log-normaliser
// −½(D·ln 2π + Σ ln σ²) — exposed so flat structure-of-arrays mirrors
// can copy a frozen Gaussian's constants without re-deriving them.
func (f *FrozenGaussian) LogNorm() float64 { return f.logNorm }

// FrozenFromMoments builds a frozen Gaussian from mean and variance
// vectors. The mean slice is retained (not copied); the variance slice is
// only read. Variances are clamped to the floor.
func FrozenFromMoments(mean, variance []float64) FrozenGaussian {
	f := FrozenGaussian{
		Mean:   mean,
		InvVar: make([]float64, len(variance)),
		LogVar: make([]float64, len(variance)),
	}
	var logDet float64
	for i, v := range variance {
		if v < VarianceFloor {
			v = VarianceFloor
		}
		logDet += f.setVar(i, v)
	}
	f.logNorm = -0.5 * (float64(len(variance))*log2Pi + logDet)
	return f
}

// setVar freezes dimension i at the (floored) variance v and returns
// ln v, the dimension's term of the log-determinant.
func (f *FrozenGaussian) setVar(i int, v float64) float64 {
	f.InvVar[i] = 1 / v
	lv := math.Log(v)
	f.LogVar[i] = lv
	return lv
}

// Freeze returns the frozen form of the Gaussian summarised by the cluster
// feature — the precomputed equivalent of cf.Gaussian() — with LogN set to
// the log of the feature's count.
func Freeze(cf *CF) FrozenGaussian {
	var f FrozenGaussian
	FreezeInto(&f, cf)
	return f
}

// FreezeInto rewrites dst as Freeze(cf), reusing dst's vectors when they
// have cf's dimension: an entry whose cluster feature an insert changed
// refreezes in place, in Freeze's arithmetic (Freeze is this call on a
// zero value), so the result is the same bits.
func FreezeInto(dst *FrozenGaussian, cf *CF) {
	dst.SetMean(cf)
	dst.SetVariance(cf)
}

// SetMean rewrites the mean and LogN from cf and leaves the variance
// terms alone — under variance pooling those come from another feature.
func (f *FrozenGaussian) SetMean(cf *CF) {
	f.Mean = sized(f.Mean, len(cf.LS))
	f.LogN = 0
	if cf.N <= 0 {
		clear(f.Mean)
		return
	}
	inv := 1 / cf.N
	for i, v := range cf.LS {
		f.Mean[i] = v * inv
	}
	f.LogN = math.Log(cf.N)
}

// SetVariance rewrites the inverse variances, log variances and the
// log-normaliser from cf's floored variance (cf.Variance, term by term).
func (f *FrozenGaussian) SetVariance(cf *CF) {
	d := len(cf.SS)
	f.InvVar, f.LogVar = sized(f.InvVar, d), sized(f.LogVar, d)
	inv := 1 / cf.N
	var logDet float64
	for i := range cf.SS {
		logDet += f.setVar(i, cf.varianceAt(i, inv))
	}
	f.logNorm = -0.5 * (float64(d)*log2Pi + logDet)
}

// ShareVariance makes f alias from's variance terms — variance pooling
// keeps one inverse-variance vector per entry, shared by its classes.
func (f *FrozenGaussian) ShareVariance(from *FrozenGaussian) {
	f.InvVar, f.LogVar, f.logNorm = from.InvVar, from.LogVar, from.logNorm
}

// sized returns v when it already has n elements, else a new vector.
func sized(v []float64, n int) []float64 {
	if len(v) == n {
		return v
	}
	return make([]float64, n)
}

// Freeze returns the frozen form of g.
func (g Gaussian) Freeze() FrozenGaussian {
	return FrozenFromMoments(g.Mean, g.Var)
}

// Gaussian reconstructs the ordinary form (mainly for tests and reports).
func (f *FrozenGaussian) Gaussian() Gaussian {
	variance := make([]float64, len(f.InvVar))
	for i, iv := range f.InvVar {
		variance[i] = 1 / iv
	}
	return Gaussian{Mean: f.Mean, Var: variance}
}

// LogPDF returns the log density of x under the frozen Gaussian. It
// performs one multiply-accumulate loop and no allocation.
func (f *FrozenGaussian) LogPDF(x []float64) float64 {
	var quad float64
	mean, inv := f.Mean, f.InvVar
	for i, m := range mean {
		d := x[i] - m
		quad += d * d * inv[i]
	}
	return f.logNorm - 0.5*quad
}

// LogPDFObs returns the log marginal density restricted to the observed
// dimensions obs (nil = all dimensions, an empty obs yields 0 — the same
// contract as Gaussian.LogPDFObs).
func (f *FrozenGaussian) LogPDFObs(x []float64, obs []int) float64 {
	if obs == nil {
		return f.LogPDF(x)
	}
	var quad, logDet float64
	for _, i := range obs {
		d := x[i] - f.Mean[i]
		quad += d * d * f.InvVar[i]
		logDet += f.LogVar[i]
	}
	return -0.5 * (float64(len(obs))*log2Pi + logDet + quad)
}
