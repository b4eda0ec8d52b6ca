package kernels

import "math"

// This file is the vectorized-descent companion of frozen.go: where
// FrozenKernel.LogDensityObs evaluates one (query, centre) pair through
// an interface call, its SweepLogDensityObs evaluates one query against
// a whole contiguous block of centres laid out as a flat float64 slice —
// the structure-of-arrays leaf layout of internal/core — in a single
// loop with no per-centre pointer dereference or dynamic dispatch. Every
// sweep reproduces the per-row arithmetic of LogDensityObs operation for
// operation, so a swept density is digit-identical to the per-row one
// (sweep_test.go).

// SweepLogDensityObs implements FrozenKernel for the Gaussian kernel,
// replicating frozenGaussianKernel.LogDensity / LogDensityObs per row.
func (f *frozenGaussianKernel) SweepLogDensityObs(x, centers []float64, count, dim int, obs []int, out []float64) {
	if obs == nil {
		inv := f.invVar
		for j := 0; j < count; j++ {
			row := centers[j*dim : j*dim+dim]
			var quad float64
			for i, c := range row {
				d := x[i] - c
				quad += d * d * inv[i]
			}
			out[j] = f.logNorm - 0.5*quad
		}
		return
	}
	// The marginal's log-determinant depends only on the bandwidths, so
	// it is accumulated once — the same additions in the same order as
	// the per-row path, hence the same bits.
	var logDet float64
	for _, i := range obs {
		logDet += f.logVar[i]
	}
	base := float64(len(obs)) * log2Pi
	for j := 0; j < count; j++ {
		row := centers[j*dim : j*dim+dim]
		var quad float64
		for _, i := range obs {
			d := x[i] - row[i]
			quad += d * d * f.invVar[i]
		}
		out[j] = -0.5 * (base + logDet + quad)
	}
}

// SweepLogDensityObs implements FrozenKernel for the Epanechnikov
// kernel, replicating frozenEpanechnikov.LogDensity / LogDensityObs per
// row (including the −Inf early-out outside the kernel's support).
func (f *frozenEpanechnikov) SweepLogDensityObs(x, centers []float64, count, dim int, obs []int, out []float64) {
	if obs == nil {
	rows:
		for j := 0; j < count; j++ {
			row := centers[j*dim : j*dim+dim]
			logp := f.sumLQ
			for i, c := range row {
				u := (x[i] - c) * f.invS[i]
				if u <= -1 || u >= 1 {
					out[j] = math.Inf(-1)
					continue rows
				}
				logp += math.Log1p(-u * u)
			}
			out[j] = logp
		}
		return
	}
obsRows:
	for j := 0; j < count; j++ {
		row := centers[j*dim : j*dim+dim]
		var logp float64
		for _, i := range obs {
			u := (x[i] - row[i]) * f.invS[i]
			if u <= -1 || u >= 1 {
				out[j] = math.Inf(-1)
				continue obsRows
			}
			logp += f.logQ[i] + math.Log1p(-u*u)
		}
		out[j] = logp
	}
}

// SweepFrozenLogPDFObs evaluates a query against a flat block of frozen
// diagonal Gaussians — count rows of means/invVar/logVar (dim values
// each) plus one logNorm per row — writing count log densities into
// out. Row j is bitwise equal to stats.FrozenGaussian.LogPDFObs for the
// Gaussian those row constants came from; inner-node entries of a Bayes
// tree are always Gaussian regardless of the leaf kernel, so this one
// sweep serves every inner refinement. With every dimension observed it
// scores four rows at a time: four independent sums, each folding its
// own row's terms in dimension order, so a row's bits do not depend on
// its neighbours.
func SweepFrozenLogPDFObs(x, means, invVar, logVar, logNorm []float64, count, dim int, obs []int, out []float64) {
	if obs == nil {
		x = x[:dim]
		j := 0
		for ; j+4 <= count; j += 4 {
			b := j * dim
			m0, m1, m2, m3 := means[b:][:dim], means[b+dim:][:dim], means[b+2*dim:][:dim], means[b+3*dim:][:dim]
			v0, v1, v2, v3 := invVar[b:][:dim], invVar[b+dim:][:dim], invVar[b+2*dim:][:dim], invVar[b+3*dim:][:dim]
			var q0, q1, q2, q3 float64
			for i, xi := range x {
				d0, d1, d2, d3 := xi-m0[i], xi-m1[i], xi-m2[i], xi-m3[i]
				q0, q1, q2, q3 = q0+d0*d0*v0[i], q1+d1*d1*v1[i], q2+d2*d2*v2[i], q3+d3*d3*v3[i]
			}
			out[j], out[j+1], out[j+2], out[j+3] = logNorm[j]-0.5*q0, logNorm[j+1]-0.5*q1, logNorm[j+2]-0.5*q2, logNorm[j+3]-0.5*q3
		}
		for ; j < count; j++ {
			base := j * dim
			row := means[base : base+dim]
			var quad float64
			for i, m := range row {
				d := x[i] - m
				quad += d * d * invVar[base+i]
			}
			out[j] = logNorm[j] - 0.5*quad
		}
		return
	}
	for j := 0; j < count; j++ {
		base := j * dim
		var quad, logDet float64
		for _, i := range obs {
			d := x[i] - means[base+i]
			quad += d * d * invVar[base+i]
			logDet += logVar[base+i]
		}
		out[j] = -0.5 * (float64(len(obs))*log2Pi + logDet + quad)
	}
}
