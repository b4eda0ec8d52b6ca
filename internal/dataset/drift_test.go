package dataset

import (
	"math"
	"testing"
)

func TestDriftStreamValidation(t *testing.T) {
	if _, err := DriftStream(DriftSpec{}); err == nil {
		t.Errorf("empty spec accepted")
	}
	if _, err := DriftStream(DriftSpec{Size: 10, Classes: 2, Features: 2, DriftDistance: -1}); err == nil {
		t.Errorf("negative drift accepted")
	}
}

// The defining property: class-conditional means move between the first
// and last stream segments.
func TestDriftStreamMeansMove(t *testing.T) {
	ds, err := DriftStream(DriftSpec{
		Name: "drift", Size: 8000, Classes: 2, Features: 3,
		DriftDistance: 0.4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	head := segmentClassMean(ds, 0, 2000, 0)
	tail := segmentClassMean(ds, 6000, 8000, 0)
	var moved float64
	for k := range head {
		d := head[k] - tail[k]
		moved += d * d
	}
	if math.Sqrt(moved) < 0.1 {
		t.Errorf("class mean moved only %v over the stream", math.Sqrt(moved))
	}
}

// Abrupt drift: the concept is stationary within each half but jumps at
// the midpoint.
func TestAbruptDrift(t *testing.T) {
	ds, err := DriftStream(DriftSpec{
		Name: "abrupt", Size: 8000, Classes: 2, Features: 3,
		DriftDistance: 0.4, Abrupt: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	q1 := segmentClassMean(ds, 0, 2000, 0)
	q2 := segmentClassMean(ds, 2000, 4000, 0)
	q3 := segmentClassMean(ds, 4000, 6000, 0)
	within := dist(q1, q2)
	across := dist(q2, q3)
	if across < within*3 {
		t.Errorf("abrupt jump %v not much larger than within-half wobble %v", across, within)
	}
}

func segmentClassMean(ds *Dataset, lo, hi, label int) []float64 {
	mean := make([]float64, ds.Dim())
	n := 0
	for i := lo; i < hi; i++ {
		if ds.Y[i] != label {
			continue
		}
		for k, v := range ds.X[i] {
			mean[k] += v
		}
		n++
	}
	for k := range mean {
		mean[k] /= float64(n)
	}
	return mean
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
