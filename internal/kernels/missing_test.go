package kernels

import (
	"math"
	"testing"
)

// Masked evaluation must equal full evaluation on the reduced vectors —
// exact marginalisation for product kernels.
func TestLogDensityObsMatchesReducedVectors(t *testing.T) {
	x := []float64{0.3, math.NaN(), 0.9}
	c := []float64{0.2, 0.5, 0.8}
	h := []float64{0.1, 0.2, 0.3}
	obs := []int{0, 2}
	xr := []float64{0.3, 0.9}
	cr := []float64{0.2, 0.8}
	hr := []float64{0.1, 0.3}
	k := Gaussian{}
	if got, want := k.LogDensityObs(x, c, h, obs), k.LogDensity(xr, cr, hr); math.Abs(got-want) > 1e-12 {
		t.Errorf("masked %v, reduced %v", got, want)
	}
}

func TestLogDensityObsNilIsFull(t *testing.T) {
	x := []float64{0.4, 0.6}
	c := []float64{0.5, 0.5}
	h := []float64{0.2, 0.2}
	k := Gaussian{}
	if got, want := k.LogDensityObs(x, c, h, nil), k.LogDensity(x, c, h); got != want {
		t.Errorf("nil obs %v != full %v", got, want)
	}
}

func TestLogDensityObsZeroBandwidth(t *testing.T) {
	x := []float64{0.1, 0.2}
	c := []float64{0.1, 0.2}
	h := []float64{0, 0}
	if got := (Gaussian{}).LogDensityObs(x, c, h, []int{1}); math.IsNaN(got) {
		t.Errorf("NaN for zero bandwidth")
	}
}

// Empty observation set: the empty product, log density 0.
func TestLogDensityObsEmpty(t *testing.T) {
	x := []float64{math.NaN()}
	c := []float64{0}
	h := []float64{1}
	if got := (Gaussian{}).LogDensityObs(x, c, h, []int{}); got != 0 {
		t.Errorf("empty obs log density %v, want 0", got)
	}
}
