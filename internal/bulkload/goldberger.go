package bulkload

import (
	"fmt"
	"math"
	"sort"

	"bayestree/internal/core"
	"bayestree/internal/stats"
)

// The statistical bottom-up loaders of Section 3.1. Goldberger, after
// Goldberger & Roweis [10], starts from a mixture with one kernel per
// training item and builds each tree level as the coarser mixture obtained
// by regroup/refit under the KL mixture distance (Definition 4),
// initialised by grouping ⌈0.75·M⌉ components in z-curve order. Virtual
// sampling, after Vasconcelos & Lippman [21], reduces each level by EM
// instead. Groups that end up holding too many members for a node are
// split by moving the group mean ±ε along its highest-variance dimension
// and re-assigning members as in the regroup step; groups with too few
// members are merged with their KL-closest neighbour — exactly the
// post-processing the paper chose after rejecting the
// integer-linear-program formulation as too slow.

// splitEpsilon scales the representative displacement of the oversize
// split, in units of the group's standard deviation.
const splitEpsilon = 0.5

// reduceFn reduces a level's mixture f to s groups of about group members
// and returns the mapping of f's components to groups.
type reduceFn func(f *mixture, s, group int) ([]int, error)

// statisticalBuild stacks tree levels bottom-up, each produced by reducing
// the previous level's mixture.
func statisticalBuild(points [][]float64, cfg core.Config, label int, reducer reduceFn) (*core.MultiTree, error) {
	if err := validatePoints(points, cfg); err != nil {
		return nil, err
	}
	b, err := core.NewBuilder(cfg, label)
	if err != nil {
		return nil, err
	}

	// Level 0: one kernel per training item, bandwidth by Silverman.
	cf := stats.CFOfAll(points, cfg.Dim)
	variance := cf.Variance()
	sigma := make([]float64, len(variance))
	for i, v := range variance {
		sigma[i] = math.Sqrt(v)
	}
	bw := stats.SilvermanBandwidth(sigma, len(points), cfg.Dim)
	kernelVar := make([]float64, cfg.Dim)
	for i, h := range bw {
		kernelVar[i] = h * h
		if kernelVar[i] < stats.VarianceFloor {
			kernelVar[i] = stats.VarianceFloor
		}
	}
	comps := make([]stats.Gaussian, len(points))
	weights := make([]float64, len(points))
	for i, p := range points {
		comps[i] = stats.Gaussian{Mean: p, Var: kernelVar}
		weights[i] = 1
	}
	fine, err := newMixture(weights, comps)
	if err != nil {
		return nil, err
	}

	// Reduce kernels to leaves.
	leafGroups, err := reduceToGroups(fine, len(points), cfg.MinLeaf, cfg.MaxLeaf, reducer)
	if err != nil {
		return nil, fmt.Errorf("bulkload: leaf level: %w", err)
	}
	nodes := make([]*core.MultiNode, 0, len(leafGroups))
	for _, grp := range leafGroups {
		pts := make([][]float64, len(grp))
		for i, idx := range grp {
			pts[i] = points[idx]
		}
		leaf, err := b.Leaf(pts)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, leaf)
	}

	// Stack inner levels until everything fits under one root.
	for len(nodes) > cfg.MaxFanout {
		level, err := levelMixture(nodes, cfg.Dim)
		if err != nil {
			return nil, err
		}
		groups, err := reduceToGroups(level, len(nodes), cfg.MinFanout, cfg.MaxFanout, reducer)
		if err != nil {
			return nil, fmt.Errorf("bulkload: inner level (%d nodes): %w", len(nodes), err)
		}
		next := make([]*core.MultiNode, 0, len(groups))
		for _, grp := range groups {
			children := make([]*core.MultiNode, len(grp))
			for i, idx := range grp {
				children[i] = nodes[idx]
			}
			inner, err := b.Inner(children)
			if err != nil {
				return nil, err
			}
			next = append(next, inner)
		}
		if len(next) >= len(nodes) {
			return nil, fmt.Errorf("bulkload: level reduction made no progress (%d → %d)", len(nodes), len(next))
		}
		nodes = next
	}
	var root *core.MultiNode
	if len(nodes) == 1 {
		root = nodes[0]
	} else {
		root, err = b.Inner(nodes)
		if err != nil {
			return nil, err
		}
	}
	// Mixture-driven grouping does not guarantee equal-size paths per se,
	// but levels are stacked uniformly, so the tree is balanced.
	return b.Finish(root, true)
}

// levelMixture builds the mixture of a node level: one component per node
// from its cluster feature, weighted by its count.
func levelMixture(nodes []*core.MultiNode, dim int) (*mixture, error) {
	weights := make([]float64, len(nodes))
	comps := make([]stats.Gaussian, len(nodes))
	for i, n := range nodes {
		cf := nodeCF(n, dim)
		weights[i] = cf.N
		comps[i] = cf.Gaussian()
	}
	return newMixture(weights, comps)
}

func nodeCF(n *core.MultiNode, dim int) stats.CF {
	cf := stats.NewCF(dim)
	if n.IsLeaf() {
		for _, p := range n.Points() {
			cf.Add(p.X)
		}
		return cf
	}
	for _, e := range n.Entries() {
		cf.Merge(e.Total)
	}
	return cf
}

// reduceToGroups reduces the fine mixture to ~count/⌈0.75·max⌉ groups and
// post-processes them into the legal size range [min, max].
func reduceToGroups(fine *mixture, count, minSize, maxSize int, reducer reduceFn) ([][]int, error) {
	group := (3*maxSize + 3) / 4 // ⌈0.75·M⌉
	if group < minSize {
		group = minSize
	}
	if count <= maxSize {
		all := make([]int, count)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}, nil
	}
	s := (count + group - 1) / group
	if s < 2 {
		s = 2
	}
	pi, err := reducer(fine, s, group)
	if err != nil {
		return nil, err
	}
	groups := make([][]int, s)
	for i, j := range pi {
		groups[j] = append(groups[j], i)
	}
	nonEmpty := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			nonEmpty = append(nonEmpty, g)
		}
	}
	return enforceGroupBounds(nonEmpty, fine, minSize, maxSize), nil
}

// enforceGroupBounds applies the paper's post-processing: split oversize
// groups via ±ε representatives, merge undersize groups into their
// KL-closest neighbour. A bounded number of passes resolves interactions;
// any residual illegality falls back to z-curve chunking, which is always
// legal.
func enforceGroupBounds(groups [][]int, fine *mixture, minSize, maxSize int) [][]int {
	for pass := 0; pass < 12; pass++ {
		changed := false
		// Split oversize groups.
		var next [][]int
		for _, g := range groups {
			if len(g) <= maxSize {
				next = append(next, g)
				continue
			}
			a, b := splitGroup(g, fine)
			next = append(next, a, b)
			changed = true
		}
		groups = next
		// Merge undersize groups.
		for {
			tiny := -1
			for i, g := range groups {
				if len(g) < minSize && len(groups) > 1 {
					tiny = i
					break
				}
			}
			if tiny == -1 {
				break
			}
			gTiny := groupGaussian(groups[tiny], fine)
			best, bestKL := -1, math.Inf(1)
			for i, g := range groups {
				if i == tiny {
					continue
				}
				if kl := stats.KL(gTiny, groupGaussian(g, fine)); kl < bestKL {
					best, bestKL = i, kl
				}
			}
			groups[best] = append(groups[best], groups[tiny]...)
			groups = append(groups[:tiny], groups[tiny+1:]...)
			changed = true
		}
		legal := true
		for _, g := range groups {
			if len(g) > maxSize || (len(g) < minSize && len(groups) > 1) {
				legal = false
				break
			}
		}
		if legal {
			return groups
		}
		if !changed {
			break
		}
	}
	// Fallback: flatten and re-chunk in z-curve order of means. Always
	// legal; only reached for adversarial size interactions.
	var all []int
	for _, g := range groups {
		all = append(all, g...)
	}
	means := make([][]float64, len(all))
	for i, idx := range all {
		means[i] = fine.comps[idx].Mean
	}
	order := sortByCurve(means, fine.dim(), zKey)
	sizes := chunkSizes(len(all), minSize, maxSize, (3*maxSize+3)/4)
	out := make([][]int, 0, len(sizes))
	pos := 0
	for _, sz := range sizes {
		g := make([]int, sz)
		for i := 0; i < sz; i++ {
			g[i] = all[order[pos+i]]
		}
		out = append(out, g)
		pos += sz
	}
	return out
}

// splitGroup implements the paper's oversize split: compute the group's
// Gaussian, move its mean by ±ε·σ along the dimension with the highest
// variance, place a Gaussian over each representative and re-assign the
// members by KL as in the regroup step. Degenerate assignments fall back
// to a median split along the same dimension.
func splitGroup(g []int, fine *mixture) (a, b []int) {
	gg := groupGaussian(g, fine)
	dim := 0
	for k := range gg.Var {
		if gg.Var[k] > gg.Var[dim] {
			dim = k
		}
	}
	delta := splitEpsilon * math.Sqrt(gg.Var[dim])
	if delta <= 0 {
		delta = 1e-6
	}
	repA := stats.Gaussian{Mean: append([]float64(nil), gg.Mean...), Var: gg.Var}
	repB := stats.Gaussian{Mean: append([]float64(nil), gg.Mean...), Var: gg.Var}
	repA.Mean[dim] -= delta
	repB.Mean[dim] += delta
	for _, idx := range g {
		if stats.KL(fine.comps[idx], repA) <= stats.KL(fine.comps[idx], repB) {
			a = append(a, idx)
		} else {
			b = append(b, idx)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		// Median split along the chosen dimension.
		sorted := append([]int(nil), g...)
		sort.SliceStable(sorted, func(x, y int) bool {
			return fine.comps[sorted[x]].Mean[dim] < fine.comps[sorted[y]].Mean[dim]
		})
		mid := len(sorted) / 2
		return sorted[:mid], sorted[mid:]
	}
	return a, b
}

// groupGaussian is the moment-preserving merge of a group's components.
func groupGaussian(g []int, fine *mixture) stats.Gaussian {
	w, acc := 0.0, stats.Gaussian{}
	first := true
	for _, idx := range g {
		if first {
			w, acc = fine.weights[idx], fine.comps[idx]
			first = false
			continue
		}
		w, acc = mergeGaussians(w, acc, fine.weights[idx], fine.comps[idx])
	}
	return acc
}
