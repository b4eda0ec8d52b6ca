package core

import (
	"fmt"
	"math"

	"bayestree/internal/mbr"
	"bayestree/internal/stats"
)

// This file provides the constructors a snapshot decoder needs to
// reassemble trees whose node and entry internals are unexported. The
// contract is digit-identity: a rebuilt entry carries the exact cluster
// feature that was stored, and whatever is frozen from it — a Tree
// entry's cache here, a MultiTree's mirror on first query — is derived
// by the same stats.Freeze arithmetic as in the tree that was encoded,
// so a decoded tree answers every query with bit-identical log
// densities. See internal/persist for the on-disk format and
// ARCHITECTURE.md for the frozen-cache invalidation contract.

// RebuildLeafWeighted returns a leaf node owning the given observations;
// weights are the per-observation decayed masses, parallel to points
// (nil means unit weights). Both slices are retained, not copied;
// callers hand over ownership.
func RebuildLeafWeighted(points [][]float64, weights []float64) (*Node, error) {
	if err := validateWeights(weights, len(points)); err != nil {
		return nil, err
	}
	return &Node{leaf: true, points: points, weights: weights}, nil
}

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

// RebuildInner returns an inner node owning the given entries. The slice
// is retained, not copied; callers hand over ownership.
func RebuildInner(entries []Entry) *Node {
	return &Node{entries: entries}
}

// RebuildEntry returns an entry over child carrying exactly the given
// MBR and cluster feature, with the frozen-Gaussian cache derived from
// cf — the same derivation summarize performs, so a rebuilt entry is
// indistinguishable from the original.
func RebuildEntry(rect mbr.Rect, cf stats.CF, child *Node) Entry {
	f := stats.Freeze(&cf)
	return Entry{Rect: rect, CF: cf, Child: child, frozen: &f}
}

// RebuildTree reassembles a Tree from decoded parts. It validates the
// configuration and checks that the node structure actually holds size
// observations, guarding against logically corrupt snapshots that pass
// the transport checksum.
func RebuildTree(cfg Config, root *Node, size int, balanced bool) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("core: rebuild with nil root")
	}
	points, _ := collectWeightedPoints(root, nil, nil)
	if len(points) != size {
		return nil, fmt.Errorf("core: rebuild size %d but tree holds %d observations", size, len(points))
	}
	for _, p := range points {
		if len(p) != cfg.Dim {
			return nil, fmt.Errorf("core: rebuild point dim %d != tree dim %d", len(p), cfg.Dim)
		}
	}
	return &Tree{cfg: cfg, root: root, size: size, balanced: balanced}, nil
}

// RebuildMultiLeafWeighted returns a multi-class leaf owning the given
// labelled observations and their decayed masses (see
// RebuildLeafWeighted).
func RebuildMultiLeafWeighted(points []LabeledPoint, weights []float64) (*MultiNode, error) {
	if err := validateWeights(weights, len(points)); err != nil {
		return nil, err
	}
	return &MultiNode{leaf: true, points: points, weights: weights}, nil
}

// RebuildMultiInner returns a multi-class inner node owning the given
// entries.
func RebuildMultiInner(entries []MultiEntry) *MultiNode {
	return &MultiNode{entries: entries}
}

// RebuildMultiTree reassembles a MultiTree from decoded parts: the
// structural configuration, the multi-class options, the class labels
// in tree order, the root node and the per-class observation counts.
// The leaf population is checked against the counts.
func RebuildMultiTree(cfg Config, mopts MultiOptions, labels []int, root *MultiNode, counts []float64) (*MultiTree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("core: rebuild with nil root")
	}
	if len(labels) < 2 {
		return nil, fmt.Errorf("core: multi tree needs ≥ 2 classes, got %d", len(labels))
	}
	if len(counts) != len(labels) {
		return nil, fmt.Errorf("core: %d counts for %d labels", len(counts), len(labels))
	}
	index := make(map[int]int, len(labels))
	for i, l := range labels {
		if _, dup := index[l]; dup {
			return nil, fmt.Errorf("core: duplicate class label %d", l)
		}
		index[l] = i
	}
	t := &MultiTree{
		cfg:    cfg,
		mopts:  mopts,
		labels: append([]int(nil), labels...),
		index:  index,
		root:   root,
		counts: append([]float64(nil), counts...),
	}
	var total float64
	for _, c := range counts {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("core: invalid class count %v", c)
		}
		total += c
	}
	seen := 0
	weighted := false
	var walk func(n *MultiNode) error
	walk = func(n *MultiNode) error {
		if n.leaf {
			if n.weights != nil {
				weighted = true
			}
			for _, p := range n.points {
				if len(p.X) != cfg.Dim {
					return fmt.Errorf("core: rebuild point dim %d != tree dim %d", len(p.X), cfg.Dim)
				}
				if _, ok := index[p.Label]; !ok {
					return fmt.Errorf("core: rebuild point with unknown label %d", p.Label)
				}
				seen++
			}
			return nil
		}
		for i := range n.entries {
			e := &n.entries[i]
			if len(e.CFs) != len(labels) {
				return fmt.Errorf("core: rebuild entry with %d class CFs, want %d", len(e.CFs), len(labels))
			}
			if e.Child == nil {
				return fmt.Errorf("core: rebuild inner entry with nil child")
			}
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	t.size = seen
	if !weighted {
		// Undecayed trees: class counts are integral and must equal the
		// stored population exactly.
		if int(total) != seen {
			return nil, fmt.Errorf("core: rebuild counts sum %v but tree holds %d observations", total, seen)
		}
		return t, nil
	}
	// Decayed trees: the stored per-class masses must agree with the
	// bottom-up sum of the leaf weights (the counts stay as stored, so
	// a reloaded model scores digit-identically).
	sum := t.summarize(root)
	for c := range counts {
		if math.Abs(counts[c]-sum.CFs[c].N) > 1e-6*(1+math.Abs(sum.CFs[c].N)) {
			return nil, fmt.Errorf("core: rebuild class %d mass %v but tree holds %v", labels[c], counts[c], sum.CFs[c].N)
		}
	}
	return t, nil
}
