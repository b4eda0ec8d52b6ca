package core

import (
	"fmt"
)

// Builder assembles one class's Bayes tree bottom-up for the
// bulk-loading strategies of Section 3. Loaders create leaves from
// observation groups and stack inner nodes on top, each entry summarised
// by the tree's own summarize; Finish wraps the final node level into a
// one-class MultiTree and verifies the balance the loader promised.
type Builder struct {
	t *MultiTree // the empty tree whose summarize builds the entries
}

// NewBuilder returns a builder of trees of the given class label.
func NewBuilder(cfg Config, label int) (*Builder, error) {
	t, err := NewMultiTree(cfg, []int{label}, MultiOptions{})
	if err != nil {
		return nil, err
	}
	return &Builder{t: t}, nil
}

// Config returns the builder's tree configuration.
func (b *Builder) Config() Config { return b.t.cfg }

// Leaf creates a leaf node holding the given observations (copied).
func (b *Builder) Leaf(points [][]float64) (*MultiNode, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("core: empty leaf")
	}
	if len(points) > b.t.cfg.MaxLeaf {
		return nil, fmt.Errorf("core: leaf with %d observations exceeds L=%d", len(points), b.t.cfg.MaxLeaf)
	}
	n := &MultiNode{leaf: true, points: make([]LabeledPoint, len(points))}
	for i, p := range points {
		if err := checkPoint(p, b.t.cfg.Dim); err != nil {
			return nil, err
		}
		n.points[i] = LabeledPoint{X: append([]float64(nil), p...), Label: b.t.labels[0]}
	}
	return n, nil
}

// Inner creates an inner node over the given children, computing each
// child's entry (MBR + cluster feature).
func (b *Builder) Inner(children []*MultiNode) (*MultiNode, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("core: inner node without children")
	}
	if len(children) > b.t.cfg.MaxFanout {
		return nil, fmt.Errorf("core: inner node with %d children exceeds M=%d", len(children), b.t.cfg.MaxFanout)
	}
	n := &MultiNode{entries: make([]MultiEntry, len(children))}
	for i, c := range children {
		n.entries[i] = b.t.summarize(c)
	}
	return n, nil
}

// Finish wraps root into a one-class tree. balanced declares whether the
// loader guaranteed equal leaf depths; when true this is verified.
func (b *Builder) Finish(root *MultiNode, balanced bool) (*MultiTree, error) {
	if root == nil {
		return nil, fmt.Errorf("core: nil root")
	}
	if balanced {
		if err := checkBalanced(root); err != nil {
			return nil, err
		}
	}
	t, err := NewMultiTree(b.t.cfg, b.t.labels, MultiOptions{})
	if err != nil {
		return nil, err
	}
	t.root, t.balanced = root, balanced
	t.size = countPoints(root)
	t.counts[0], t.npoints[0] = float64(t.size), t.size
	t.publish()
	return t, nil
}
