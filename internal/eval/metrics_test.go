package eval

import (
	"math"
	"testing"
)

func TestCurveComparators(t *testing.T) {
	a := &Curve{Name: "a", Acc: []float64{0.5, 0.7, 0.9, 0.8}}
	b := &Curve{Name: "b", Acc: []float64{0.5, 0.6, 0.7, 0.9}}
	area, err := CurveArea(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := (0.0 + 0.1 + 0.2 - 0.1) / 4
	if math.Abs(area-want) > 1e-12 {
		t.Errorf("area %v, want %v", area, want)
	}
	if _, err := CurveArea(a, &Curve{Acc: []float64{1}}); err == nil {
		t.Errorf("length mismatch accepted")
	}
}

func TestOscillationAndSmoothness(t *testing.T) {
	smooth := &Curve{Acc: []float64{0.5, 0.6, 0.7, 0.8}}
	rough := &Curve{Acc: []float64{0.5, 0.8, 0.6, 0.9}}
	if Oscillation(smooth) != 0 {
		t.Errorf("monotone curve oscillates")
	}
	if got := Oscillation(rough); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("oscillation %v, want 0.2", got)
	}
}
