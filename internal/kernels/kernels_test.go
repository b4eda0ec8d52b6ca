package kernels

import (
	"math"
	"testing"
)

func TestGaussianKernelMatchesNormalPDF(t *testing.T) {
	k := Gaussian{}
	// 1D kernel at center 0 with h=2 is N(0, 4).
	x, c, h := []float64{1.5}, []float64{0}, []float64{2}
	want := math.Exp(-0.5*1.5*1.5/4) / math.Sqrt(2*math.Pi*4)
	got := math.Exp(k.LogDensity(x, c, h))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("gaussian kernel = %v, want %v", got, want)
	}
}

// Numeric integration: the kernel must integrate to 1 in 1D.
func TestKernelsIntegrateToOne(t *testing.T) {
	c, h := []float64{0.5}, []float64{0.3}
	var integral float64
	const step = 0.001
	for x := -10.0; x < 10; x += step {
		integral += math.Exp(Gaussian{}.LogDensity([]float64{x}, c, h)) * step
	}
	if math.Abs(integral-1) > 5e-3 {
		t.Errorf("gaussian integrates to %v, want 1", integral)
	}
}

// The kernel must have standard deviation h per dimension.
func TestKernelsVarianceIsH2(t *testing.T) {
	c, h := []float64{0}, []float64{0.4}
	var m2 float64
	const step = 0.0005
	for x := -5.0; x < 5; x += step {
		m2 += x * x * math.Exp(Gaussian{}.LogDensity([]float64{x}, c, h)) * step
	}
	if math.Abs(m2-0.16) > 2e-3 {
		t.Errorf("gaussian second moment = %v, want h² = 0.16", m2)
	}
}

func TestGaussianSymmetry(t *testing.T) {
	k := Gaussian{}
	c, h := []float64{1, 2}, []float64{0.5, 0.7}
	a := k.LogDensity([]float64{1.3, 1.6}, c, h)
	b := k.LogDensity([]float64{0.7, 2.4}, c, h)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("kernel not symmetric about center: %v vs %v", a, b)
	}
}

func TestZeroBandwidthSafe(t *testing.T) {
	if ld := (Gaussian{}).LogDensity([]float64{0}, []float64{0}, []float64{0}); math.IsNaN(ld) {
		t.Errorf("gaussian NaN for zero bandwidth")
	}
}
