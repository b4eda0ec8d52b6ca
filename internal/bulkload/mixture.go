package bulkload

import (
	"fmt"
	"math"

	"bayestree/internal/stats"
)

// mixture is a finite mixture Σ w_j · N(μ_j, σ_j²) with diagonal Gaussian
// components: one tree level as the statistical loaders see it. Weights
// are kept normalised (summing to one).
type mixture struct {
	weights []float64
	comps   []stats.Gaussian
}

// newMixture builds a mixture from weights and components, normalising
// the weights. It returns an error on dimension mismatches or
// non-positive total weight.
func newMixture(weights []float64, comps []stats.Gaussian) (*mixture, error) {
	if len(weights) != len(comps) {
		return nil, fmt.Errorf("mixture: %d weights for %d components", len(weights), len(comps))
	}
	if len(comps) == 0 {
		return nil, fmt.Errorf("mixture: empty model")
	}
	d := comps[0].Dim()
	for i, c := range comps {
		if c.Dim() != d {
			return nil, fmt.Errorf("mixture: component %d has dim %d, want %d", i, c.Dim(), d)
		}
	}
	m := &mixture{weights: append([]float64(nil), weights...), comps: append([]stats.Gaussian(nil), comps...)}
	if err := m.normalize(); err != nil {
		return nil, err
	}
	return m, nil
}

// dim returns the dimensionality of the mixture.
func (m *mixture) dim() int { return m.comps[0].Dim() }

// len returns the number of components.
func (m *mixture) len() int { return len(m.comps) }

// normalize rescales the weights to sum to one.
func (m *mixture) normalize() error {
	var s float64
	for _, w := range m.weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("mixture: invalid weight %v", w)
		}
		s += w
	}
	if s <= 0 {
		return fmt.Errorf("mixture: weights sum to %v", s)
	}
	for i := range m.weights {
		m.weights[i] /= s
	}
	return nil
}

// distance is the mixture distance of Definition 4:
//
//	d(f, g) = Σ_i α_i · min_j KL(f_i, g_j)
//
// measuring how well the coarser model g approximates the finer model f.
func distance(f, g *mixture) float64 {
	var d float64
	for i, fc := range f.comps {
		best := math.Inf(1)
		for _, gc := range g.comps {
			if kl := stats.KL(fc, gc); kl < best {
				best = kl
			}
		}
		d += f.weights[i] * best
	}
	return d
}

// mergeGaussians returns the moment-preserving merge of two weighted
// Gaussians — the refit formulas specialised to two components, with the
// variance floored after the pair. The loaders' undersize-group
// post-processing merges groups pairwise with it.
func mergeGaussians(wa float64, a stats.Gaussian, wb float64, b stats.Gaussian) (float64, stats.Gaussian) {
	w := wa + wb
	d := a.Dim()
	mean := make([]float64, d)
	for k := 0; k < d; k++ {
		mean[k] = (wa*a.Mean[k] + wb*b.Mean[k]) / w
	}
	variance := make([]float64, d)
	for k := 0; k < d; k++ {
		da := a.Mean[k] - mean[k]
		db := b.Mean[k] - mean[k]
		variance[k] = (wa*(a.Var[k]+da*da) + wb*(b.Var[k]+db*db)) / w
		if variance[k] < stats.VarianceFloor {
			variance[k] = stats.VarianceFloor
		}
	}
	return w, stats.Gaussian{Mean: mean, Var: variance}
}

// refit recomputes the coarse model of s components from weighted
// assignments of f's components with the moment-preserving updates of the
// paper:
//
//	β_j = Σ w_ij
//	μ_j = (1/β_j) Σ w_ij μ_i
//	σ_j² = (1/β_j) Σ w_ij (σ_i² + (μ_i − μ_j)²)
//
// pairs calls add(i, j, w_ij) for every non-zero weight, in increasing i:
// (i, π(i), α_i) for Goldberger's hard mapping, (i, j, α_i·h_ij) for
// virtual sampling's responsibilities. A coarse slot with no weight keeps
// weight 0 and a placeholder component, so indexing stays stable.
func refit(f *mixture, s int, pairs func(add func(i, j int, w float64))) (*mixture, error) {
	d := f.dim()
	beta := make([]float64, s)
	mu := make([][]float64, s)
	va := make([][]float64, s)
	for j := range mu {
		mu[j] = make([]float64, d)
		va[j] = make([]float64, d)
	}
	pairs(func(i, j int, w float64) {
		beta[j] += w
		for k := 0; k < d; k++ {
			mu[j][k] += w * f.comps[i].Mean[k]
		}
	})
	for j := 0; j < s; j++ {
		if beta[j] <= 0 {
			continue
		}
		for k := 0; k < d; k++ {
			mu[j][k] /= beta[j]
		}
	}
	pairs(func(i, j int, w float64) {
		c := f.comps[i]
		for k := 0; k < d; k++ {
			dm := c.Mean[k] - mu[j][k]
			va[j][k] += w * (c.Var[k] + dm*dm)
		}
	})
	g := &mixture{weights: make([]float64, s), comps: make([]stats.Gaussian, s)}
	var sum float64
	for j := 0; j < s; j++ {
		if beta[j] <= 0 {
			ones := make([]float64, d)
			for k := range ones {
				ones[k] = 1
			}
			g.comps[j] = stats.Gaussian{Mean: make([]float64, d), Var: ones}
			continue
		}
		v := make([]float64, d)
		for k := 0; k < d; k++ {
			v[k] = va[j][k] / beta[j]
			if v[k] < stats.VarianceFloor {
				v[k] = stats.VarianceFloor
			}
		}
		g.weights[j] = beta[j]
		g.comps[j] = stats.Gaussian{Mean: mu[j], Var: v}
		sum += beta[j]
	}
	if sum <= 0 {
		return nil, fmt.Errorf("mixture: refit produced empty model")
	}
	for j := range g.weights {
		g.weights[j] /= sum
	}
	return g, nil
}

// hard feeds refit the mapping π: fine component i gives its whole weight
// to π(i).
func hard(f *mixture, pi []int) func(add func(i, j int, w float64)) {
	return func(add func(i, j int, w float64)) {
		for i, j := range pi {
			add(i, j, f.weights[i])
		}
	}
}
