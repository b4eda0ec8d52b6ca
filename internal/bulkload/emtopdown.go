package bulkload

import (
	"fmt"
	"math"

	"bayestree/internal/core"
)

// buildEMTopDown is the machine-learning bulk loader of Section 3.1 that
// the paper found best on every data set: recursively split the training
// set with the EM algorithm into at most M (the fanout) clusters, fix up
// degenerate outcomes (fewer than m clusters → split the biggest again;
// a single cluster → split at the two farthest elements), store clusters
// of at most L observations as leaves and recurse into larger ones. The
// resulting tree may be unbalanced, which the paper explicitly accepts:
// "the results show that this is not a drawback but even leads to better
// anytime classification performance".
func buildEMTopDown(points [][]float64, cfg core.Config, label int) (*core.MultiTree, error) {
	if err := validatePoints(points, cfg); err != nil {
		return nil, err
	}
	b, err := core.NewBuilder(cfg, label)
	if err != nil {
		return nil, err
	}
	root, err := (&emBuilder{b: b, cfg: cfg}).build(points, 0)
	if err != nil {
		return nil, err
	}
	return b.Finish(root, false)
}

// emSeed seeds the first EM run of a build; each later run adds the
// number of runs before it, so runs vary and the build stays
// deterministic.
const emSeed = 1

type emBuilder struct {
	b     *core.Builder
	cfg   core.Config
	calls int64
}

// build constructs the subtree over the given observations.
func (eb *emBuilder) build(points [][]float64, depth int) (*core.MultiNode, error) {
	if len(points) <= eb.cfg.MaxLeaf {
		return eb.b.Leaf(points)
	}
	if depth > 64 {
		return nil, fmt.Errorf("bulkload: EMTopDown recursion too deep (%d points)", len(points))
	}
	clusters, err := eb.cluster(points)
	if err != nil {
		return nil, err
	}
	children := make([]*core.MultiNode, 0, len(clusters))
	for _, cl := range clusters {
		child, err := eb.build(cl, depth+1)
		if err != nil {
			return nil, err
		}
		children = append(children, child)
	}
	return eb.b.Inner(children)
}

// cluster partitions the observations into between 2 and M groups using
// EM with the paper's fix-ups.
func (eb *emBuilder) cluster(points [][]float64) ([][][]float64, error) {
	eb.calls++
	res, err := emFit(points, eb.cfg.MaxFanout, emSeed+eb.calls)
	if err != nil {
		return nil, err
	}
	groups := make([][][]float64, 0, len(res.comps))
	for _, idxs := range res.clusters() {
		g := make([][]float64, len(idxs))
		for i, idx := range idxs {
			g[i] = points[idx]
		}
		groups = append(groups, g)
	}
	// "In the rare case that the EM returns a single cluster, this cluster
	// is split by picking the two farthest elements and assigning the
	// remaining elements to the closest of the two."
	if len(groups) == 1 {
		a, bb := farthestPairSplit(groups[0])
		groups = [][][]float64{a, bb}
	}
	// "If the EM returns less than m clusters, the biggest resulting
	// cluster is split again such that the total number of resulting
	// clusters is at most M."
	for len(groups) < eb.cfg.MinFanout && len(groups) < eb.cfg.MaxFanout {
		big := 0
		for i := range groups {
			if len(groups[i]) > len(groups[big]) {
				big = i
			}
		}
		if len(groups[big]) < 2 {
			break
		}
		a, bb := farthestPairSplit(groups[big])
		groups[big] = a
		groups = append(groups, bb)
	}
	// Guard the node capacity (EM cannot exceed M by construction, the
	// extra splits above are capped, but be defensive).
	if len(groups) > eb.cfg.MaxFanout {
		groups = groups[:eb.cfg.MaxFanout]
	}
	// Merge empty or singleton artifacts into their nearest neighbour so
	// no degenerate subtrees arise.
	groups = mergeTiny(groups, 2)
	if len(groups) < 2 {
		a, bb := farthestPairSplit(groups[0])
		groups = [][][]float64{a, bb}
	}
	return groups, nil
}

// farthestPairSplit splits points by their two mutually farthest elements
// (approximated by a double sweep from the centroid, which is exact enough
// for a splitting heuristic and O(n)) and assigns the rest to the closer
// representative.
func farthestPairSplit(points [][]float64) (a, b [][]float64) {
	p1 := farthestFrom(points, centroidOf(points))
	p2 := farthestFrom(points, p1)
	for _, p := range points {
		if sq(p, p1) <= sq(p, p2) {
			a = append(a, p)
		} else {
			b = append(b, p)
		}
	}
	// Never return an empty side.
	if len(a) == 0 {
		a = append(a, b[len(b)-1])
		b = b[:len(b)-1]
	}
	if len(b) == 0 {
		b = append(b, a[len(a)-1])
		a = a[:len(a)-1]
	}
	return a, b
}

func farthestFrom(points [][]float64, from []float64) []float64 {
	best := points[0]
	bestD := -1.0
	for _, p := range points {
		if d := sq(p, from); d > bestD {
			best, bestD = p, d
		}
	}
	return best
}

// sq is the squared Euclidean distance.
func sq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// mergeTiny merges groups smaller than minSize into the group with the
// nearest centroid.
func mergeTiny(groups [][][]float64, minSize int) [][][]float64 {
	for {
		tiny := -1
		for i, g := range groups {
			if len(g) < minSize && len(groups) > 1 {
				tiny = i
				break
			}
		}
		if tiny == -1 {
			return groups
		}
		tc := centroidOf(groups[tiny])
		best, bestD := -1, math.Inf(1)
		for i, g := range groups {
			if i == tiny {
				continue
			}
			if d := sq(centroidOf(g), tc); d < bestD {
				best, bestD = i, d
			}
		}
		groups[best] = append(groups[best], groups[tiny]...)
		groups = append(groups[:tiny], groups[tiny+1:]...)
	}
}

// centroidOf is the mean of the points.
func centroidOf(points [][]float64) []float64 {
	c := make([]float64, len(points[0]))
	for _, p := range points {
		for k, v := range p {
			c[k] += v
		}
	}
	for k := range c {
		c[k] /= float64(len(points))
	}
	return c
}
