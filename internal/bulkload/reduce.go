package bulkload

import (
	"fmt"
	"math"

	"bayestree/internal/stats"
)

// The statistical reductions' fixed parameters: reduceIters bounds each
// level's regroup/refit (or virtual-sampling EM) loop, which usually
// converges much earlier, and mixtureTol is the relative improvement
// below which the loop stops.
const (
	reduceIters = 8
	mixtureTol  = 1e-6
)

// reduce approximates the fine mixture f (r components) by a coarser
// mixture with s components following Goldberger & Roweis [10], as adapted
// by the paper for bulk loading, and returns the final mapping π of fine
// components to coarse ones:
//
//  1. initial mapping π₀ groups fine components in z-curve order of their
//     means, group per coarse component;
//  2. regroup: π(i) = argmin_j KL(f_i, g_j);
//  3. refit: the moment-preserving merge of each coarse component's group;
//
// repeated until d(f, g) stops decreasing. Empty coarse components are
// reseeded from the worst-approximated fine component, so π always has
// exactly s non-empty groups (unless s ≥ r, in which case π is the
// identity).
func reduce(f *mixture, s, group int) ([]int, error) {
	if s <= 0 {
		return nil, fmt.Errorf("mixture: target size %d", s)
	}
	r := f.len()
	if s >= r {
		return identityMapping(r), nil
	}
	pi := initialMapping(f, s, group)
	g, err := refit(f, s, hard(f, pi))
	if err != nil {
		return nil, err
	}
	prev := distance(f, g)
	for iters := 0; iters < reduceIters; iters++ {
		changed := regroup(f, g, pi)
		reseedEmpty(f, g, pi, s)
		g, err = refit(f, s, hard(f, pi))
		if err != nil {
			return nil, err
		}
		d := distance(f, g)
		if !changed || d >= prev-mixtureTol*math.Max(1, math.Abs(prev)) {
			break
		}
		prev = d
	}
	return pi, nil
}

func identityMapping(r int) []int {
	pi := make([]int, r)
	for i := range pi {
		pi[i] = i
	}
	return pi
}

// initialMapping computes π₀ by sorting component means along the z-curve
// and cutting the order into s contiguous groups of the given size.
func initialMapping(f *mixture, s, group int) []int {
	means := make([][]float64, f.len())
	for i, c := range f.comps {
		means[i] = c.Mean
	}
	pi := make([]int, len(means))
	for rank, idx := range sortByCurve(means, f.dim(), zKey) {
		pi[idx] = min(rank/group, s-1)
	}
	return pi
}

// regroup reassigns each fine component to its KL-closest coarse component
// and reports whether any assignment changed.
func regroup(f, g *mixture, pi []int) bool {
	changed := false
	for i, fc := range f.comps {
		best, bestKL := pi[i], math.Inf(1)
		for j, gc := range g.comps {
			if g.weights[j] <= 0 {
				continue
			}
			if kl := stats.KL(fc, gc); kl < bestKL {
				best, bestKL = j, kl
			}
		}
		if best != pi[i] {
			pi[i] = best
			changed = true
		}
	}
	return changed
}

// reseedEmpty keeps all s coarse slots alive: any slot that lost all its
// fine components is reseeded with the fine component worst approximated by
// its current coarse assignment.
func reseedEmpty(f, g *mixture, pi []int, s int) {
	count := make([]int, s)
	for _, j := range pi {
		count[j]++
	}
	for j := 0; j < s; j++ {
		if count[j] > 0 {
			continue
		}
		worst, worstKL := -1, -1.0
		for i, fc := range f.comps {
			if count[pi[i]] <= 1 {
				continue // do not orphan another slot
			}
			kl := stats.KL(fc, g.comps[pi[i]])
			if kl > worstKL {
				worst, worstKL = i, kl
			}
		}
		if worst >= 0 {
			count[pi[worst]]--
			pi[worst] = j
			count[j] = 1
		}
	}
}
