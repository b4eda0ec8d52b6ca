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

// sweepCase draws a query, a flat block of centres around it — a few of
// them far outside any compact kernel's support — and the obs masks.
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

func TestSweepLogDensityObsMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []Kernel{Gaussian{}, Epanechnikov{}} {
		for _, dim := range []int{1, 3, 16} {
			const count = 24
			x, centers, masks := sweepCase(rng, dim, count)
			h := make([]float64, dim)
			for i := range h {
				h[i] = 0.2 + rng.Float64()
			}
			f := k.FreezeBandwidth(nil, h)
			for _, obs := range masks {
				out := make([]float64, count)
				f.SweepLogDensityObs(x, centers, count, dim, obs, out)
				inside, outside := 0, 0
				for j := range out {
					want := f.LogDensityObs(x, centers[j*dim:j*dim+dim], obs)
					if math.Float64bits(out[j]) != math.Float64bits(want) {
						t.Fatalf("%s dim %d obs %v row %d: swept %v, per row %v", k.Name(), dim, obs, j, out[j], want)
					}
					if math.IsInf(want, -1) {
						outside++
					} else {
						inside++
					}
				}
				// Compact kernels must see both sides of their support.
				if k.Name() != "gaussian" && len(obs) != 0 && (inside == 0 || outside == 0) {
					t.Fatalf("%s dim %d obs %v: %d rows inside the support, %d outside", k.Name(), dim, obs, inside, outside)
				}
			}
		}
	}
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
