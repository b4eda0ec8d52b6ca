package bulkload

import (
	"fmt"
	"math"
	"sort"

	"bayestree/internal/core"
)

// curveBuild packs observations bottom-up in the order of a
// space-filling curve — the Hilbert curve or the z-curve (Morton order) of
// Section 3.1: compute the curve key of every observation, sort, fill leaf
// nodes, then repeat on the node mean vectors level by level until a
// single root remains. Nodes are packed full ("w.r.t. the page size").
func curveBuild(points [][]float64, cfg core.Config, label int, key curveKey) (*core.MultiTree, error) {
	if err := validatePoints(points, cfg); err != nil {
		return nil, err
	}
	b, err := core.NewBuilder(cfg, label)
	if err != nil {
		return nil, err
	}
	ordered := orderedCopy(points, sortByCurve(points, cfg.Dim, key))
	nodes, err := packLeaves(b, ordered, cfg, cfg.MaxLeaf)
	if err != nil {
		return nil, err
	}
	for len(nodes) > 1 {
		order := sortByCurve(nodeMeans(b, nodes), cfg.Dim, key)
		sorted := make([]*core.MultiNode, len(nodes))
		for rank, i := range order {
			sorted[rank] = nodes[i]
		}
		nodes, err = packInner(b, sorted, cfg, cfg.MaxFanout)
		if err != nil {
			return nil, err
		}
	}
	return b.Finish(nodes[0], true)
}

// packLeaves cuts the ordered observations into legal leaf nodes.
func packLeaves(b *core.Builder, ordered [][]float64, cfg core.Config, target int) ([]*core.MultiNode, error) {
	sizes := chunkSizes(len(ordered), cfg.MinLeaf, cfg.MaxLeaf, target)
	nodes := make([]*core.MultiNode, 0, len(sizes))
	pos := 0
	for _, s := range sizes {
		leaf, err := b.Leaf(ordered[pos : pos+s])
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, leaf)
		pos += s
	}
	if pos != len(ordered) {
		return nil, fmt.Errorf("bulkload: packed %d of %d observations", pos, len(ordered))
	}
	return nodes, nil
}

// packInner cuts an ordered node sequence into legal parent nodes.
func packInner(b *core.Builder, ordered []*core.MultiNode, cfg core.Config, target int) ([]*core.MultiNode, error) {
	if len(ordered) == 1 {
		return ordered, nil
	}
	sizes := chunkSizes(len(ordered), cfg.MinFanout, cfg.MaxFanout, target)
	parents := make([]*core.MultiNode, 0, len(sizes))
	pos := 0
	for _, s := range sizes {
		inner, err := b.Inner(ordered[pos : pos+s])
		if err != nil {
			return nil, err
		}
		parents = append(parents, inner)
		pos += s
	}
	return parents, nil
}

// nodeMeans returns the CF mean of each node, the representatives the
// paper re-orders at every packing level.
func nodeMeans(b *core.Builder, nodes []*core.MultiNode) [][]float64 {
	out := make([][]float64, len(nodes))
	for i, n := range nodes {
		out[i] = nodeMean(n, b.Config().Dim)
	}
	return out
}

func nodeMean(n *core.MultiNode, dim int) []float64 {
	sum := make([]float64, dim)
	var count float64
	var walk func(n *core.MultiNode)
	walk = func(n *core.MultiNode) {
		if n.IsLeaf() {
			for _, p := range n.Points() {
				for k, v := range p.X {
					sum[k] += v
				}
				count++
			}
			return
		}
		for _, e := range n.Entries() {
			// Entries already carry the subtree CF; use it directly.
			for k := range sum {
				sum[k] += e.Total.LS[k]
			}
			count += e.Total.N
		}
	}
	walk(n)
	if count > 0 {
		for k := range sum {
			sum[k] /= count
		}
	}
	return sum
}

// buildSTR is the sort-tile-recursive packing of Leutenegger et al. [14]:
// sort by the first dimension, cut into vertical slabs, recurse within
// each slab on the remaining dimensions, pack full runs into nodes; repeat
// on node centres for the upper levels.
func buildSTR(points [][]float64, cfg core.Config, label int) (*core.MultiTree, error) {
	if err := validatePoints(points, cfg); err != nil {
		return nil, err
	}
	b, err := core.NewBuilder(cfg, label)
	if err != nil {
		return nil, err
	}
	ordered := strOrder(points, cfg.Dim, cfg.MaxLeaf)
	nodes, err := packLeaves(b, ordered, cfg, cfg.MaxLeaf)
	if err != nil {
		return nil, err
	}
	for len(nodes) > 1 {
		perm := strPermutation(nodeMeans(b, nodes), cfg.Dim, cfg.MaxFanout)
		sorted := make([]*core.MultiNode, len(nodes))
		for rank, i := range perm {
			sorted[rank] = nodes[i]
		}
		nodes, err = packInner(b, sorted, cfg, cfg.MaxFanout)
		if err != nil {
			return nil, err
		}
	}
	return b.Finish(nodes[0], true)
}

// strOrder returns the observations in sort-tile-recursive order for node
// capacity c.
func strOrder(points [][]float64, dim, c int) [][]float64 {
	idx := strPermutation(points, dim, c)
	return orderedCopy(points, idx)
}

// strPermutation computes the STR ordering of the given vectors.
func strPermutation(points [][]float64, dim, c int) []int {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	var tile func(ids []int, axis int)
	tile = func(ids []int, axis int) {
		if len(ids) <= c || axis >= dim {
			return
		}
		sortIdsByAxis(points, ids, axis)
		remaining := dim - axis
		pages := int(math.Ceil(float64(len(ids)) / float64(c)))
		slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(remaining))))
		if slabs < 1 {
			slabs = 1
		}
		per := (len(ids) + slabs - 1) / slabs
		for start := 0; start < len(ids); start += per {
			end := start + per
			if end > len(ids) {
				end = len(ids)
			}
			tile(ids[start:end], axis+1)
		}
	}
	tile(idx, 0)
	return idx
}

func sortIdsByAxis(points [][]float64, ids []int, axis int) {
	sort.SliceStable(ids, func(a, b int) bool { return points[ids[a]][axis] < points[ids[b]][axis] })
}
