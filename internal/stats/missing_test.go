package stats

import (
	"math"
	"testing"
)

func TestObservedDims(t *testing.T) {
	if got, _ := ObservedDimsInto([]float64{1, 2, 3}, nil); got != nil {
		t.Errorf("complete vector should give nil, got %v", got)
	}
	got, buf := ObservedDimsInto([]float64{1, math.NaN(), 3, math.NaN()}, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("ObservedDimsInto = %v, want [0 2]", got)
	}
	if got, _ := ObservedDimsInto([]float64{math.NaN()}, buf); len(got) != 0 || got == nil {
		t.Errorf("all-missing should give empty non-nil slice, got %v", got)
	}
	if got, _ := ObservedDimsInto([]float64{math.NaN()}, nil); len(got) != 0 || got == nil {
		t.Errorf("all-missing with no scratch should give empty non-nil slice, got %v", got)
	}
}

func TestLogPDFObsMarginalises(t *testing.T) {
	g := Gaussian{Mean: []float64{1, 2, 3}, Var: []float64{0.5, 1, 2}}
	x := []float64{1.2, math.NaN(), 2.5}
	obs := []int{0, 2}
	// Marginal of a diagonal Gaussian = Gaussian over the kept dims.
	gr := Gaussian{Mean: []float64{1, 3}, Var: []float64{0.5, 2}}
	want := gr.LogPDF([]float64{1.2, 2.5})
	if got := g.LogPDFObs(x, obs); math.Abs(got-want) > 1e-12 {
		t.Errorf("masked logpdf %v, want %v", got, want)
	}
	// nil obs = full evaluation.
	full := []float64{1.2, 1.9, 2.5}
	if got, want := g.LogPDFObs(full, nil), g.LogPDF(full); got != want {
		t.Errorf("nil obs %v != full %v", got, want)
	}
	// Empty obs = empty product.
	if got := g.LogPDFObs(x, []int{}); got != 0 {
		t.Errorf("empty obs logpdf %v, want 0", got)
	}
}

func TestLogPDFObsVarianceFloor(t *testing.T) {
	g := Gaussian{Mean: []float64{0}, Var: []float64{0}}
	if got := g.LogPDFObs([]float64{0}, []int{0}); math.IsNaN(got) || math.IsInf(got, 1) {
		t.Errorf("floored masked density degenerate: %v", got)
	}
}
