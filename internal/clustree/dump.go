package clustree

import (
	"fmt"

	"bayestree/internal/stats"
)

// DumpNode is the serialization-friendly view of one tree node: the
// structural source of truth (entry cluster features, parked buffers,
// decay timestamps, topology) with nothing derived, so a persistence
// layer can store it bit-exactly and Rebuild an identical tree.
type DumpNode struct {
	// Leaf reports whether the node's entries are micro-clusters.
	Leaf bool
	// Entries are the node's entries in tree order.
	Entries []DumpEntry
}

// DumpEntry is the serialization-friendly view of one entry.
type DumpEntry struct {
	// CF is the entry's (decayed) cluster feature — the micro-cluster at
	// leaf level, the subtree summary above it.
	CF stats.CF
	// Buffer is the parked-insertion buffer CF.
	Buffer stats.CF
	// TS is the timestamp the CFs were last decayed to.
	TS float64
	// Child is the subtree below the entry; nil at leaf level.
	Child *DumpNode
}

// Dump exports the tree's structural state. The returned nodes share no
// memory with the tree (CFs are cloned), so the caller may hold them
// across further inserts — this is what makes consistent snapshots
// under a serving layer's shard lock cheap to take.
func (t *Tree) Dump() *DumpNode {
	return dumpNode(t.root)
}

func dumpNode(n *node) *DumpNode {
	out := &DumpNode{Leaf: n.leaf, Entries: make([]DumpEntry, len(n.entries))}
	for i, e := range n.entries {
		out.Entries[i] = DumpEntry{CF: e.cf.Clone(), Buffer: e.buffer.Clone(), TS: e.ts}
		if e.child != nil {
			out.Entries[i].Child = dumpNode(e.child)
		}
	}
	return out
}

// Counters returns the lifetime statistics Dump does not carry in the
// topology: total inserts, parked insertions, micro-cluster merges and
// leaf splits.
func (t *Tree) Counters() (inserts, parked, merges, splits int) {
	return t.inserts, t.parked, t.merges, t.splits
}

// Rebuild reconstructs a tree from a Dump, its current time and its
// lifetime counters. The dump is validated structurally (dimensions,
// leaf/inner consistency) and the rebuilt tree is digit-identical to
// the dumped one: every CF float64 is taken as stored, so MicroClusters
// and Weight reproduce the original bit for bit.
func Rebuild(cfg Config, root *DumpNode, now float64, inserts, parked, merges, splits int) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, fmt.Errorf("clustree: rebuild with nil root")
	}
	if inserts < 0 || parked < 0 || merges < 0 || splits < 0 {
		return nil, fmt.Errorf("clustree: rebuild with negative counters")
	}
	rn, err := rebuildNode(root, cfg.Dim)
	if err != nil {
		return nil, err
	}
	return &Tree{cfg: cfg, root: rn, now: now, mass: stats.NewCF(cfg.Dim),
		inserts: inserts, parked: parked, merges: merges, splits: splits}, nil
}

func rebuildNode(d *DumpNode, dim int) (*node, error) {
	n := &node{leaf: d.Leaf}
	for i := range d.Entries {
		de := &d.Entries[i]
		if de.CF.Dim() != dim || de.Buffer.Dim() != dim {
			return nil, fmt.Errorf("clustree: rebuild entry dim %d/%d != %d", de.CF.Dim(), de.Buffer.Dim(), dim)
		}
		if err := de.CF.Validate(); err != nil {
			return nil, fmt.Errorf("clustree: rebuild: %w", err)
		}
		if err := de.Buffer.Validate(); err != nil {
			return nil, fmt.Errorf("clustree: rebuild: %w", err)
		}
		e := &entry{cf: de.CF.Clone(), buffer: de.Buffer.Clone(), ts: de.TS}
		if d.Leaf != (de.Child == nil) {
			return nil, fmt.Errorf("clustree: rebuild leaf/inner mismatch")
		}
		if de.Child != nil {
			child, err := rebuildNode(de.Child, dim)
			if err != nil {
				return nil, err
			}
			if len(child.entries) == 0 {
				return nil, fmt.Errorf("clustree: rebuild with empty inner child")
			}
			e.child = child
		}
		n.entries = append(n.entries, e)
	}
	return n, nil
}
