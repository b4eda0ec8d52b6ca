package core

import (
	"fmt"
	"math"

	"bayestree/internal/stats"
)

// This file provides the constructors a snapshot decoder needs to
// reassemble trees whose node and entry internals are unexported. A
// snapshot stores leaves only. A rebuild first checks what Validate
// holds, allocating nothing, then derives every inner entry bottom-up
// with the tree's own summarize, so a decoded tree answers every query
// with bit-identical log densities. See internal/persist for the on-disk
// format.

// validateWeights checks a decoded leaf weight vector: parallel to the
// points and strictly positive finite masses.
func validateWeights(weights []float64, points int) error {
	if weights == nil {
		return nil
	}
	if len(weights) != points {
		return fmt.Errorf("core: %d weights for %d observations", len(weights), points)
	}
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return fmt.Errorf("core: invalid observation weight %v at %d", w, i)
		}
	}
	return nil
}

// checkNodes runs check on every node under n.
func checkNodes(n *MultiNode, isRoot bool, check func(*MultiNode, bool) error) error {
	if err := check(n, isRoot); err != nil {
		return err
	}
	for i := range n.entries {
		child := n.entries[i].Child
		if child == nil {
			return fmt.Errorf("core: rebuild inner entry with nil child")
		}
		if err := checkNodes(child, false, check); err != nil {
			return err
		}
	}
	return nil
}

// deriveEntries overwrites every inner entry under n with
// summarize(child), bottom-up; checkShape has held every subtree
// non-empty, so no derived MBR is.
func (t *MultiTree) deriveEntries(n *MultiNode) {
	for i := range n.entries {
		child := n.entries[i].Child
		t.deriveEntries(child)
		n.entries[i] = t.summarize(child)
	}
}

// checkPoint refuses a point no tree of dimensionality dim stores.
func checkPoint(x []float64, dim int) error {
	if len(x) != dim {
		return fmt.Errorf("core: point dim %d != tree dim %d", len(x), dim)
	}
	if err := stats.CheckPoint(x); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// RebuildMultiLeafWeighted returns a leaf owning the given labelled
// observations; weights are their decayed masses, parallel to points
// (nil means unit weights). Both slices are retained, not copied;
// callers hand over ownership.
func RebuildMultiLeafWeighted(points []LabeledPoint, weights []float64) (*MultiNode, error) {
	if err := validateWeights(weights, len(points)); err != nil {
		return nil, err
	}
	return &MultiNode{leaf: true, points: points, weights: weights}, nil
}

// RebuildMultiInner returns an inner node owning the given entries, of
// which only Child is read: the rebuild derives the rest. The slice is
// retained, not copied; callers hand over ownership.
func RebuildMultiInner(entries []MultiEntry) *MultiNode {
	return &MultiNode{entries: entries}
}

// RebuildMultiTree reassembles a MultiTree from decoded parts, given its
// class labels in tree order and per-class counts, which are checked
// against the leaves and kept as stored, so a reloaded model scores
// digit-identically. It checks the configuration, node shapes (the
// minimum fill only when balanced), points and, if balanced, balance,
// and returns the tree with the derive that fills its inner entries; the
// tree must not be used before derive has run. The per-class point
// counts are taken from the leaves.
func RebuildMultiTree(cfg Config, mopts MultiOptions, labels []int, root *MultiNode, counts []float64, balanced bool) (t *MultiTree, derive func(), err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if root == nil {
		return nil, nil, fmt.Errorf("core: rebuild with nil root")
	}
	if len(labels) == 0 {
		return nil, nil, fmt.Errorf("core: tree without classes")
	}
	if len(counts) != len(labels) {
		return nil, nil, fmt.Errorf("core: %d counts for %d labels", len(counts), len(labels))
	}
	index := make(map[int]int, len(labels))
	for i, l := range labels {
		if _, dup := index[l]; dup {
			return nil, nil, fmt.Errorf("core: duplicate class label %d", l)
		}
		index[l] = i
	}
	t = &MultiTree{
		cfg:      cfg,
		mopts:    mopts,
		labels:   append([]int(nil), labels...),
		index:    index,
		root:     root,
		counts:   append([]float64(nil), counts...),
		balanced: balanced,
	}
	masses, points := make([]float64, len(labels)), make([]int, len(labels))
	err = checkNodes(root, true, func(n *MultiNode, isRoot bool) error {
		for _, p := range n.points {
			if err := checkPoint(p.X, cfg.Dim); err != nil {
				return err
			}
		}
		t.size += len(n.points)
		if err := t.addMasses(masses, points, n); err != nil {
			return err
		}
		return checkShape(n, &cfg, isRoot, balanced)
	})
	if err == nil {
		t.npoints = points // derived from the leaves: snapshots do not store them
		err = t.checkCounts(masses, points)
	}
	if err == nil && balanced {
		err = checkBalanced(root)
	}
	if err != nil {
		return nil, nil, err
	}
	t.publish()
	return t, func() { t.deriveEntries(root); t.publish() }, nil
}
