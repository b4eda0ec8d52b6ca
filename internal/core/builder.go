package core

import (
	"fmt"
	"math"
)

// Builder assembles Bayes trees bottom-up for the bulk-loading strategies
// of Section 3. Loaders create leaves from observation groups and stack
// inner nodes on top; Finish wraps the final node level into a Tree and
// verifies the structural invariants that the loader promised.
type Builder struct {
	cfg Config
}

// NewBuilder returns a builder for the given configuration.
func NewBuilder(cfg Config) (*Builder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Builder{cfg: cfg}, nil
}

// Config returns the builder's tree configuration.
func (b *Builder) Config() Config { return b.cfg }

// Leaf creates a leaf node holding the given observations (copied).
func (b *Builder) Leaf(points [][]float64) (*Node, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("core: empty leaf")
	}
	if len(points) > b.cfg.MaxLeaf {
		return nil, fmt.Errorf("core: leaf with %d observations exceeds L=%d", len(points), b.cfg.MaxLeaf)
	}
	n := &Node{leaf: true, points: make([][]float64, len(points))}
	for i, p := range points {
		if err := checkPoint(p, b.cfg.Dim); err != nil {
			return nil, err
		}
		cp := make([]float64, len(p))
		copy(cp, p)
		n.points[i] = cp
	}
	return n, nil
}

// Inner creates an inner node over the given children, computing each
// child's entry (MBR + cluster feature).
func (b *Builder) Inner(children []*Node) (*Node, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("core: inner node without children")
	}
	if len(children) > b.cfg.MaxFanout {
		return nil, fmt.Errorf("core: inner node with %d children exceeds M=%d", len(children), b.cfg.MaxFanout)
	}
	t := &Tree{cfg: b.cfg} // for summarize
	n := &Node{entries: make([]Entry, len(children))}
	for i, c := range children {
		n.entries[i] = t.summarize(c)
	}
	return n, nil
}

// Finish wraps root into a Tree. balanced declares whether the loader
// guaranteed equal leaf depths; when true this is verified.
func (b *Builder) Finish(root *Node, balanced bool) (*Tree, error) {
	if root == nil {
		return nil, fmt.Errorf("core: nil root")
	}
	t := &Tree{cfg: b.cfg, root: root, balanced: balanced}
	t.size = countPoints(root)
	if balanced {
		if err := checkBalanced(root); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func checkBalanced(root *Node) error {
	depth := -1
	var walk func(n *Node, d int) error
	walk = func(n *Node, d int) error {
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

// Stats walks the tree and reports shape statistics.
func (t *Tree) Stats() Stats {
	s := Stats{Observations: t.size, MinLeafDepth: math.MaxInt32}
	var fanoutSum, leafOccSum int
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		s.Nodes++
		if depth+1 > s.Height {
			s.Height = depth + 1
		}
		if n.leaf {
			s.Leaves++
			leafOccSum += len(n.points)
			if depth < s.MinLeafDepth {
				s.MinLeafDepth = depth
			}
			return
		}
		s.InnerNodes++
		fanoutSum += len(n.entries)
		for i := range n.entries {
			walk(n.entries[i].Child, depth+1)
		}
	}
	walk(t.root, 0)
	if s.InnerNodes > 0 {
		s.AvgFanout = float64(fanoutSum) / float64(s.InnerNodes)
	}
	if s.Leaves > 0 {
		s.AvgLeafOcc = float64(leafOccSum) / float64(s.Leaves)
	}
	if s.MinLeafDepth == math.MaxInt32 {
		s.MinLeafDepth = 0
	}
	return s
}

// Validate checks the Bayes tree invariants: every inner entry's MBR
// exactly bounds and its cluster feature exactly sums its subtree (within
// floating-point tolerance), capacities are respected (root excepted), and
// — for trees built balanced — all leaves share one depth. It returns the
// first violation.
func (t *Tree) Validate() error {
	if t.size == 0 {
		return nil
	}
	const tol = 1e-6
	var walk func(n *Node, isRoot bool) error
	walk = func(n *Node, isRoot bool) error {
		if err := checkShape(n, &t.cfg, isRoot, t.balanced); err != nil {
			return err
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.Child == nil {
				return fmt.Errorf("core: entry %d has no child", i)
			}
			want := t.summarize(e.Child)
			if err := e.Rect.Validate(); err != nil {
				return fmt.Errorf("core: invalid entry rect: %w", err)
			}
			for k := 0; k < t.cfg.Dim; k++ {
				if math.Abs(e.Rect.Lo[k]-want.Rect.Lo[k]) > tol || math.Abs(e.Rect.Hi[k]-want.Rect.Hi[k]) > tol {
					return fmt.Errorf("core: stale MBR in dim %d: have [%v,%v], want [%v,%v]",
						k, e.Rect.Lo[k], e.Rect.Hi[k], want.Rect.Lo[k], want.Rect.Hi[k])
				}
			}
			if math.Abs(e.CF.N-want.CF.N) > tol {
				return fmt.Errorf("core: stale CF count: have %v, want %v", e.CF.N, want.CF.N)
			}
			scale := math.Max(1, math.Abs(want.CF.N))
			for k := 0; k < t.cfg.Dim; k++ {
				if math.Abs(e.CF.LS[k]-want.CF.LS[k]) > tol*scale*10 {
					return fmt.Errorf("core: stale CF LS[%d]: have %v, want %v", k, e.CF.LS[k], want.CF.LS[k])
				}
				if math.Abs(e.CF.SS[k]-want.CF.SS[k]) > tol*scale*100 {
					return fmt.Errorf("core: stale CF SS[%d]: have %v, want %v", k, e.CF.SS[k], want.CF.SS[k])
				}
			}
			if err := walk(e.Child, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, true); err != nil {
		return err
	}
	if got := countPoints(t.root); got != t.size {
		return fmt.Errorf("core: counted %d observations, size says %d", got, t.size)
	}
	if t.balanced {
		return checkBalanced(t.root)
	}
	return nil
}
