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

// Numeric integration: both kernels must integrate to 1 in 1D.
func TestKernelsIntegrateToOne(t *testing.T) {
	for _, k := range []Kernel{Gaussian{}, Epanechnikov{}} {
		c, h := []float64{0.5}, []float64{0.3}
		var integral float64
		const step = 0.001
		for x := -10.0; x < 10; x += step {
			ld := k.LogDensity([]float64{x}, c, h)
			if !math.IsInf(ld, -1) {
				integral += math.Exp(ld) * step
			}
		}
		if math.Abs(integral-1) > 5e-3 {
			t.Errorf("%s integrates to %v, want 1", k.Name(), integral)
		}
	}
}

// Both kernels must have standard deviation h per dimension (the √5
// rescaling of the Epanechnikov kernel is exactly about this).
func TestKernelsVarianceIsH2(t *testing.T) {
	for _, k := range []Kernel{Gaussian{}, Epanechnikov{}} {
		c, h := []float64{0}, []float64{0.4}
		var m2 float64
		const step = 0.0005
		for x := -5.0; x < 5; x += step {
			ld := k.LogDensity([]float64{x}, c, h)
			if !math.IsInf(ld, -1) {
				m2 += x * x * math.Exp(ld) * step
			}
		}
		if math.Abs(m2-0.16) > 2e-3 {
			t.Errorf("%s second moment = %v, want h² = 0.16", k.Name(), m2)
		}
	}
}

func TestEpanechnikovCompactSupport(t *testing.T) {
	k := Epanechnikov{}
	c, h := []float64{0}, []float64{1}
	// Support is |x| < √5·h.
	if ld := k.LogDensity([]float64{2.2}, c, h); math.IsInf(ld, -1) {
		t.Errorf("inside support should be finite")
	}
	if ld := k.LogDensity([]float64{2.3}, c, h); !math.IsInf(ld, -1) {
		t.Errorf("outside support should be -Inf")
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
	for _, k := range []Kernel{Gaussian{}, Epanechnikov{}} {
		ld := k.LogDensity([]float64{0}, []float64{0}, []float64{0})
		if math.IsNaN(ld) {
			t.Errorf("%s NaN for zero bandwidth", k.Name())
		}
	}
}

func TestByName(t *testing.T) {
	if k, ok := ByName("gaussian"); !ok || k.Name() != "gaussian" {
		t.Errorf("ByName(gaussian) failed")
	}
	if k, ok := ByName(""); !ok || k.Name() != "gaussian" {
		t.Errorf("default kernel should be gaussian")
	}
	if k, ok := ByName("epanechnikov"); !ok || k.Name() != "epanechnikov" {
		t.Errorf("ByName(epanechnikov) failed")
	}
	if _, ok := ByName("triweight"); ok {
		t.Errorf("unknown kernel accepted")
	}
}
