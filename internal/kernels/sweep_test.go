package kernels

import (
	"math"
	"math/rand"
	"testing"

	"bayestree/internal/stats"
)

// These tests pin sweep.go's contract directly: every swept row is
// bitwise what the per-row method returns, with all dimensions observed
// (nil obs), some, or none (empty obs).

// sweepCase draws a query, a flat block of means around it — every
// fourth one far away — and the obs masks.
func sweepCase(rng *rand.Rand, dim, count int) (x, centers []float64, masks [][]int) {
	x = make([]float64, dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	centers = make([]float64, count*dim)
	for j := 0; j < count; j++ {
		spread := 0.3
		if j%4 == 3 {
			spread = 30
		}
		for i := 0; i < dim; i++ {
			centers[j*dim+i] = x[i] + spread*rng.NormFloat64()
		}
	}
	partial := []int{0}
	if dim > 3 {
		partial = append(partial, dim/2, dim-1)
	}
	return x, centers, [][]int{nil, partial, {}}
}

// TestSweepFrozenLogPDFObsMatchesPerRow runs row counts 0–9 and 24, so
// the four-row loop meets every remainder.
func TestSweepFrozenLogPDFObsMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dim := range []int{1, 3, 16} {
		for _, count := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 24} {
			checkSweepFrozen(t, rng, dim, count)
		}
	}
}

func checkSweepFrozen(t *testing.T, rng *rand.Rand, dim, count int) {
	t.Helper()
	x, means, masks := sweepCase(rng, dim, count)
	invVar := make([]float64, count*dim)
	logVar := make([]float64, count*dim)
	logNorm := make([]float64, count)
	rows := make([]stats.FrozenGaussian, count)
	for j := range rows {
		variance := make([]float64, dim)
		for i := range variance {
			variance[i] = 0.05 + rng.Float64()
		}
		variance[0] = 0 // floored at freeze time
		rows[j] = stats.FrozenFromMoments(means[j*dim:j*dim+dim], variance)
		copy(invVar[j*dim:], rows[j].InvVar)
		copy(logVar[j*dim:], rows[j].LogVar)
		logNorm[j] = rows[j].LogNorm()
	}
	for _, obs := range masks {
		out := make([]float64, count)
		SweepFrozenLogPDFObs(x, means, invVar, logVar, logNorm, count, dim, obs, out)
		for j := range out {
			if want := rows[j].LogPDFObs(x, obs); math.Float64bits(out[j]) != math.Float64bits(want) {
				t.Fatalf("dim %d count %d obs %v row %d: swept %v, per row %v", dim, count, obs, j, out[j], want)
			}
		}
	}
}

// TestLogDensityPairMatchesLogDensity: both halves of a pair are bitwise
// the per-point density, for two kernels of different bandwidths and
// centres near and far.
func TestLogDensityPairMatchesLogDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	freeze := func(dim int) *FrozenGaussianKernel {
		h := make([]float64, dim)
		for i := range h {
			h[i] = 0.2 + rng.Float64()
		}
		return FreezeBandwidth(nil, h)
	}
	for _, dim := range []int{1, 3, 16} {
		const count = 8
		x, centers, _ := sweepCase(rng, dim, count)
		f, g := freeze(dim), freeze(dim)
		for j := 0; j < count; j += 2 {
			a, b := centers[j*dim:(j+1)*dim], centers[(j+1)*dim:(j+2)*dim]
			da, db := LogDensityPair(f, g, x, a, b)
			if wa, wb := f.LogDensity(x, a), g.LogDensity(x, b); math.Float64bits(da) != math.Float64bits(wa) || math.Float64bits(db) != math.Float64bits(wb) {
				t.Fatalf("dim %d rows %d, %d: pair %v, %v, per point %v, %v", dim, j, j+1, da, db, wa, wb)
			}
		}
	}
}
