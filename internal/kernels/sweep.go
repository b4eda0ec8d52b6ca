package kernels

import "bayestree/internal/stats"

// This file is the vectorized-descent companion of stats.FrozenGaussian:
// where FrozenGaussian.LogPDFObs scores one frozen Gaussian at a time,
// SweepFrozenLogPDFObs scores one query against a whole contiguous block
// of them — the class-major rows an inner node of internal/core's
// descent mirror derives from its entries' cluster features — in a
// single loop with no per-row pointer dereference or dynamic dispatch.
// The sweep reproduces the per-row arithmetic operation for operation,
// so a swept density is digit-identical to the per-row one
// (sweep_test.go). A row keeps no log variances: a marginal takes a
// missing dimension's term from its inverse variance. The logVar
// parameter is unread and stays only because bench/sut.go's API list
// names the signature. Leaves need no sweep: the mirror keeps no copy of a
// leaf's kernel centres, so a leaf is scored point by point from the
// tree through FrozenGaussianKernel.LogDensityObs — with every
// dimension observed, two points at a time through LogDensityPair
// (frozen.go).

// SweepFrozenLogPDFObs evaluates a query against a flat block of frozen
// diagonal Gaussians — count rows of means and invVar (dim values each)
// plus one logNorm per row — writing count log densities into out. Row
// j is bitwise equal to stats.FrozenGaussian.LogPDFObs for the Gaussian
// those row constants came from; inner-node entries of a Bayes tree are
// Gaussian, so this one sweep serves every inner refinement. With every
// dimension observed it scores four rows at a time: four independent
// sums, each folding its own row's terms in dimension order, so a row's
// bits do not depend on its neighbours. With some missing, a row is
// stats.MarginalLogPDF of its constants. logVar is unread (see above).
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
		out[j] = stats.MarginalLogPDF(x, means[j*dim:][:dim], invVar[j*dim:][:dim], logNorm[j], obs)
	}
}
