package clustree

import (
	"bayestree/internal/stats"
)

// Prune is the maintenance sweep of a decaying clustering tree: every
// entry is decayed to the tree's current time, micro-clusters whose
// faded weight fell below minWeight are forgotten, subtrees that emptied
// out are removed, and a root that degenerated to a single-entry chain
// is collapsed — bounding a long-running tree's memory the same way the
// classifier's AdvanceDecay bounds its trees. It returns how many
// micro-clusters and how many whole subtree entries were removed.
//
// Mass accounting: a removed micro-cluster's weight is below the floor
// by definition, so the tree's Weight drops by at most (removals ×
// minWeight). Parked buffer mass at an entry whose subtree emptied is
// preserved when it is still above the floor: it is reborn as a leaf
// micro-cluster in place of the vanished subtree.
func (t *Tree) Prune(minWeight float64) (points, subtrees int) {
	if minWeight <= 0 {
		return 0, 0
	}
	t.pruneNode(t.root, minWeight, &points, &subtrees)
	// Root-chain collapse: a root holding a single entry adds a level of
	// descent for nothing — promote the child and re-park the entry's
	// buffer into the promoted level.
	for !t.root.leaf && len(t.root.entries) == 1 {
		e := t.root.entries[0]
		t.root = e.child
		if e.buffer.N > 0 && len(t.root.entries) > 0 {
			t.root.entries[0].buffer.Merge(e.buffer)
		}
	}
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = &node{leaf: true}
	}
	return points, subtrees
}

// pruneNode prunes one node's entries in place, recursing first so a
// subtree that empties out is seen by its parent in the same sweep.
func (t *Tree) pruneNode(n *node, floor float64, points, subtrees *int) {
	kept := n.entries[:0]
	for _, e := range n.entries {
		t.decay(e, t.now)
		if n.leaf {
			if e.cf.N+e.buffer.N < floor {
				*points++
				continue
			}
			kept = append(kept, e)
			continue
		}
		t.pruneNode(e.child, floor, points, subtrees)
		if len(e.child.entries) == 0 {
			// The subtree below is gone. Parked mass still above the
			// floor survives as a fresh micro-cluster in its place;
			// anything lighter is forgotten with the subtree.
			if e.buffer.N >= floor {
				mc := &entry{cf: e.buffer, buffer: stats.NewCF(t.cfg.Dim), ts: e.ts}
				e.child = &node{leaf: true, entries: []*entry{mc}}
				e.cf = mc.cf.Clone()
				e.buffer = stats.NewCF(t.cfg.Dim)
				kept = append(kept, e)
				continue
			}
			*subtrees++
			continue
		}
		kept = append(kept, e)
	}
	// Release the pruned tail so removed entries can be collected.
	for i := len(kept); i < len(n.entries); i++ {
		n.entries[i] = nil
	}
	n.entries = kept
}

// Depth returns the number of levels in the tree (1 for a single leaf).
// Budget-starved streams keep it small — the self-adaptation observable
// a serving layer's stats report.
func (t *Tree) Depth() int {
	d := 1
	for n := t.root; !n.leaf; {
		d++
		var next *node
		for _, e := range n.entries {
			if e.child != nil {
				next = e.child
				break
			}
		}
		if next == nil {
			break
		}
		n = next
	}
	return d
}
