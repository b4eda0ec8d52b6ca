package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// DriftSpec parameterises an evolving-stream generator: class-conditional
// mixtures whose component means migrate over the course of the stream —
// the "evolving data" setting that motivates the paper's incremental
// learning (Section 1) and the clustering extension (Section 4.2).
type DriftSpec struct {
	Name     string
	Size     int
	Classes  int
	Features int
	// ModesPerClass as in SyntheticSpec (default 3).
	ModesPerClass int
	// Spread is the per-mode standard deviation (default 0.06).
	Spread float64
	// DriftDistance is how far each mode centre travels (in unit-cube
	// units) from the start to the end of the stream (default 0.3).
	DriftDistance float64
	// Abrupt, when set, moves all modes at once halfway through the
	// stream instead of gradually (sudden vs incremental concept drift).
	Abrupt bool
	// Seed fixes the generator.
	Seed int64
}

func (s *DriftSpec) defaults() error {
	if s.Size <= 0 || s.Classes <= 0 || s.Features <= 0 {
		return fmt.Errorf("dataset: drift spec needs positive size/classes/features")
	}
	if s.ModesPerClass <= 0 {
		s.ModesPerClass = 3
	}
	if s.Spread <= 0 {
		s.Spread = 0.06
	}
	if s.DriftDistance < 0 {
		return fmt.Errorf("dataset: negative drift distance")
	}
	if s.DriftDistance == 0 {
		s.DriftDistance = 0.3
	}
	return nil
}

// DriftStream generates an ordered stream (order matters — item i is
// drawn from the concept at stream position i/Size). The returned Dataset
// preserves that order; do not shuffle it if drift is the point.
func DriftStream(spec DriftSpec) (*Dataset, error) {
	if err := spec.defaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	type mode struct {
		start, end []float64
		sigma      float64
	}
	modes := make([][]mode, spec.Classes)
	for c := 0; c < spec.Classes; c++ {
		ms := make([]mode, spec.ModesPerClass)
		for m := range ms {
			start := make([]float64, spec.Features)
			end := make([]float64, spec.Features)
			// Random start; end displaced by DriftDistance along a random
			// direction.
			dir := make([]float64, spec.Features)
			var norm float64
			for k := 0; k < spec.Features; k++ {
				start[k] = 0.15 + 0.7*rng.Float64()
				dir[k] = rng.NormFloat64()
				norm += dir[k] * dir[k]
			}
			norm = math.Sqrt(norm)
			for k := 0; k < spec.Features; k++ {
				end[k] = clamp01(start[k] + spec.DriftDistance*dir[k]/norm)
			}
			ms[m] = mode{start: start, end: end, sigma: spec.Spread * (0.5 + rng.Float64())}
		}
		modes[c] = ms
	}
	ds := &Dataset{Name: spec.Name, X: make([][]float64, spec.Size), Y: make([]int, spec.Size)}
	for i := 0; i < spec.Size; i++ {
		progress := float64(i) / float64(spec.Size)
		if spec.Abrupt {
			if progress < 0.5 {
				progress = 0
			} else {
				progress = 1
			}
		}
		c := rng.Intn(spec.Classes)
		m := modes[c][rng.Intn(len(modes[c]))]
		x := make([]float64, spec.Features)
		for k := 0; k < spec.Features; k++ {
			center := (1-progress)*m.start[k] + progress*m.end[k]
			x[k] = clamp01(center + rng.NormFloat64()*m.sigma)
		}
		ds.X[i] = x
		ds.Y[i] = c
	}
	return ds, nil
}
