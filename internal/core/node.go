package core

import (
	"fmt"
	"math"
)

// This file is the node skeleton of the Bayes tree — shape, balance,
// counting and statistics; the decay sweep is in decay.go.

// MultiNode is a Bayes tree node. Leaves store the labelled
// observations themselves (the kernel centres); inner nodes store
// entries, each summarising one child subtree per Definition 1.
type MultiNode struct {
	leaf    bool
	entries []MultiEntry   // inner nodes
	points  []LabeledPoint // leaf nodes
	// weights are the per-observation decayed weights of a leaf, parallel
	// to points. nil means every observation has weight 1 exactly — the
	// only state an undecayed tree ever has, keeping the λ = 0 paths
	// digit-identical. The vector is materialised lazily by the first
	// non-unit insert weight or maintenance sweep (see decay.go).
	weights []float64
}

// IsLeaf reports whether the node is a leaf.
func (n *MultiNode) IsLeaf() bool { return n.leaf }

// Entries returns the entries of an inner node (nil for leaves). The
// returned slice must not be modified.
func (n *MultiNode) Entries() []MultiEntry { return n.entries }

// Points returns the observations of a leaf node (nil for inner nodes).
// The returned slice must not be modified.
func (n *MultiNode) Points() []LabeledPoint { return n.points }

// Weights returns the per-observation decayed weights of a leaf,
// parallel to Points; nil means every observation weighs 1. The
// returned slice must not be modified.
func (n *MultiNode) Weights() []float64 { return n.weights }

// appendPoint adds one observation with the given weight, materialising
// the per-point weight vector only when a non-unit weight first appears
// so undecayed leaves stay weight-free.
func (n *MultiNode) appendPoint(p LabeledPoint, w float64) {
	n.points = append(n.points, p)
	if n.weights != nil {
		n.weights = append(n.weights, w)
		return
	}
	if w != 1 {
		n.weights = unitWeights(len(n.points))
		n.weights[len(n.points)-1] = w
	}
}

// unitWeights returns a weight vector of n ones.
func unitWeights(n int) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = 1
	}
	return ws
}

// splitNode performs the R* topological split on either node kind, in
// the tree's splitter. A leaf splits points, one sort per axis. A
// weighted leaf's weight vector follows its points.
func (t *MultiTree) splitNode(n *MultiNode) (left, right *MultiNode) {
	cfg := &t.cfg
	if n.leaf {
		order, cut := t.split.split(len(n.points), func(i int) (lo, hi []float64) {
			x := n.points[i].X
			return x, x
		}, cfg.Dim, cfg.MinLeaf, true)
		half := func(idx []int) *MultiNode {
			h := &MultiNode{leaf: true, points: gather(n.points, idx)}
			if n.weights != nil {
				h.weights = gather(n.weights, idx)
			}
			return h
		}
		return half(order[:cut]), half(order[cut:])
	}
	order, cut := t.split.split(len(n.entries), func(i int) (lo, hi []float64) { return n.entries[i].Rect.Lo, n.entries[i].Rect.Hi }, cfg.Dim, cfg.MinFanout, false)
	return &MultiNode{entries: gather(n.entries, order[:cut])}, &MultiNode{entries: gather(n.entries, order[cut:])}
}

// countPoints returns the number of observations stored under n.
func countPoints(n *MultiNode) int {
	if n.leaf {
		return len(n.points)
	}
	total := 0
	for i := range n.entries {
		total += countPoints(n.entries[i].Child)
	}
	return total
}

// countNodes returns the number of nodes, inner and leaf, under and
// including n.
func countNodes(n *MultiNode) int {
	total := 1
	for i := range n.entries {
		total += countNodes(n.entries[i].Child)
	}
	return total
}

// heldClasses returns the number of (entry, class) pairs with mass, the
// class cluster features with vectors, under n.
func heldClasses(n *MultiNode) (held int) {
	for i := range n.entries {
		for _, cf := range n.entries[i].CFs {
			if cf.LS != nil {
				held++
			}
		}
		held += heldClasses(n.entries[i].Child)
	}
	return held
}

// collectWeightedPoints appends every observation under n to pts and its
// weight (1 for unweighted leaves) to ws, for dissolving subtrees.
func collectWeightedPoints(n *MultiNode, pts []LabeledPoint, ws []float64) ([]LabeledPoint, []float64) {
	if n.leaf {
		pts = append(pts, n.points...)
		if n.weights != nil {
			return pts, append(ws, n.weights...)
		}
		for range n.points {
			ws = append(ws, 1)
		}
		return pts, ws
	}
	for i := range n.entries {
		pts, ws = collectWeightedPoints(n.entries[i].Child, pts, ws)
	}
	return pts, ws
}

// checkShape checks a node's occupancy against cfg: at most the
// capacity, and at least the minimum fill below the root when minFill —
// only balanced construction promises it: the paper's EMTopDown loader
// trades it (and balance) for better-shaped clusters — or else one,
// but in a root leaf.
func checkShape(n *MultiNode, cfg *Config, isRoot, minFill bool) error {
	what, have, lo, hi := "leaf occupancy", len(n.points), cfg.MinLeaf, cfg.MaxLeaf
	if !n.leaf {
		what, have, lo, hi = "fanout", len(n.entries), cfg.MinFanout, cfg.MaxFanout
	}
	if isRoot || !minFill {
		lo = 1
		if isRoot && n.leaf {
			lo = 0
		}
	}
	if have < lo || have > hi {
		return fmt.Errorf("core: %s %d outside [%d,%d]", what, have, lo, hi)
	}
	return nil
}

// checkBalanced reports the first pair of leaves at different depths
// under root.
func checkBalanced(root *MultiNode) error {
	depth := -1
	var walk func(n *MultiNode, d int) error
	walk = func(n *MultiNode, d int) error {
		if n.leaf {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("core: leaves at depths %d and %d in a tree declared balanced", depth, d)
			}
			return nil
		}
		for i := range n.entries {
			if err := walk(n.entries[i].Child, d+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, 0)
}

// Stats summarises a tree's shape.
type Stats struct {
	Observations int
	Nodes        int
	InnerNodes   int
	Leaves       int
	Height       int
	MinLeafDepth int
	AvgFanout    float64
	AvgLeafOcc   float64
}

// shapeStats walks the tree under root and reports its shape.
func shapeStats(root *MultiNode) Stats {
	s := Stats{MinLeafDepth: math.MaxInt32}
	var fanoutSum int
	var walk func(n *MultiNode, depth int)
	walk = func(n *MultiNode, depth int) {
		s.Nodes++
		s.Height = max(s.Height, depth+1)
		if n.leaf {
			s.Leaves++
			s.Observations += len(n.points)
			s.MinLeafDepth = min(s.MinLeafDepth, depth)
			return
		}
		s.InnerNodes++
		fanoutSum += len(n.entries)
		for i := range n.entries {
			walk(n.entries[i].Child, depth+1)
		}
	}
	walk(root, 0)
	if s.InnerNodes > 0 {
		s.AvgFanout = float64(fanoutSum) / float64(s.InnerNodes)
	}
	if s.Leaves > 0 {
		s.AvgLeafOcc = float64(s.Observations) / float64(s.Leaves)
	}
	if s.MinLeafDepth == math.MaxInt32 {
		s.MinLeafDepth = 0
	}
	return s
}
