package bulkload

import (
	"fmt"
	"math"

	"bayestree/internal/stats"
)

// virtualN is the total number of virtual samples the fine model is
// assumed to have generated.
const virtualN = 1000

// virtualSample reduces the fine mixture f to s components using the
// virtual-sampling EM of Vasconcelos & Lippman [21], the second
// statistical approach the paper adapted (and found inferior to
// Goldberger): each fine component i is treated as a block of
// N_i = virtualN·α_i virtual points at its sufficient statistics, giving
// closed-form E and M steps on components instead of data.
// Responsibilities are computed in the log domain; the M step is
// Goldberger's moment-preserving refit, weighted by soft responsibilities
// instead of a hard mapping. It returns the hardened mapping π, since bulk
// loading turns groups into nodes. The group size is unused: the initial
// mapping cuts the z-curve order into s equal groups.
func virtualSample(f *mixture, s, _ int) ([]int, error) {
	if s <= 0 {
		return nil, fmt.Errorf("mixture: target size %d", s)
	}
	r := f.len()
	if s >= r {
		return identityMapping(r), nil
	}
	pi := initialMapping(f, s, (r+s-1)/s)
	g, err := refit(f, s, hard(f, pi))
	if err != nil {
		return nil, err
	}

	d := f.dim()
	resp := make([][]float64, r) // responsibilities h_ij
	for i := range resp {
		resp[i] = make([]float64, s)
	}
	soft := func(add func(i, j int, w float64)) {
		for i, hs := range resp {
			for j, h := range hs {
				if w := f.weights[i] * h; w != 0 {
					add(i, j, w)
				}
			}
		}
	}
	prevObj := math.Inf(-1)
	for iters := 0; iters < reduceIters; iters++ {
		// E step: log h_ij = log β_j + N_i [ log G(μ_i; μ_j, Σ_j)
		//                                    − ½ Σ_k σ²_{i,k}/σ²_{j,k} ].
		obj := 0.0
		for i, fc := range f.comps {
			ni := max(virtualN*f.weights[i], 1)
			logs := make([]float64, s)
			for j := 0; j < s; j++ {
				if g.weights[j] <= 0 {
					logs[j] = math.Inf(-1)
					continue
				}
				gc := g.comps[j]
				var trace float64
				for k := 0; k < d; k++ {
					trace += fc.Var[k] / max(gc.Var[k], stats.VarianceFloor)
				}
				logs[j] = math.Log(g.weights[j]) + ni*(gc.LogPDF(fc.Mean)-0.5*trace)
			}
			lse := stats.LogSumExp(logs)
			obj += lse
			for j := 0; j < s; j++ {
				if math.IsInf(logs[j], -1) {
					resp[i][j] = 0
				} else {
					resp[i][j] = math.Exp(logs[j] - lse)
				}
			}
		}
		// M step: soft moment-preserving refit.
		g, err = refit(f, s, soft)
		if err != nil {
			return nil, err
		}
		if obj <= prevObj+mixtureTol*math.Max(1, math.Abs(prevObj)) {
			break
		}
		prevObj = obj
	}
	// Harden the assignment.
	for i := range resp {
		best, bestV := 0, -1.0
		for j := 0; j < s; j++ {
			if resp[i][j] > bestV {
				best, bestV = j, resp[i][j]
			}
		}
		pi[i] = best
	}
	return pi, nil
}
