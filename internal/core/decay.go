package core

import (
	"fmt"
	"math"

	"bayestree/internal/stats"
)

// This file implements exponential forgetting for the classification
// path — the serving-side form of the clustering extension's decay
// (Section 4.2), where cluster-feature weights fade as 2^(−λ·Δt) so the
// model tracks evolving streams instead of classifying yesterday's
// distribution forever.
//
// Time is logical: a tree carries a current epoch and a reference epoch
// its stored weights are valued at. An observation inserted Δe epochs
// after the reference is stored with weight 2^(λ·Δe) (amplified, see
// stats.GrowthFactor), so relative weights inside the tree are exact at
// every instant without touching any stored cluster feature on insert.
// The maintenance sweep (DecaySweep) then rescales the whole tree to the
// current epoch — decaying every cluster feature and leaf weight by
// 2^(−λ·Δe), pruning what has faded below the configured floor and
// collapsing subtrees the pruning left underfull — and resets the
// reference. Cross-tree comparisons (class priors, shard mixing) use
// Weight(), which folds the outstanding decay factor into the stored
// root mass.
//
// Both AdvanceEpoch and DecaySweep drop the cached query state (Tree
// stores nil into its query-state pointer; MultiTree calls invalidate
// with no path), so no query ever mixes state from two decay epochs. With
// decay disabled (λ = 0) every path below is bypassed and behaviour is
// digit-identical to an undecayed tree.

// DecayOptions configure exponential forgetting on a tree.
type DecayOptions struct {
	// Lambda is the decay rate: a weight fades by 2^(−Lambda·Δe) over Δe
	// decay epochs. Zero disables decay entirely (the default).
	Lambda float64
	// MinWeight is the pruning floor of the maintenance sweep:
	// observations whose decayed weight falls below it are forgotten
	// (subtrees whose observations all fade empty out bottom-up and
	// are dropped whole). Zero keeps everything (weights still fade).
	// Must be below 1 so fresh unit-weight observations always
	// survive.
	MinWeight float64
}

// Enabled reports whether decay is active.
func (o DecayOptions) Enabled() bool { return o.Lambda > 0 }

// Validate reports configuration errors.
func (o DecayOptions) Validate() error {
	if math.IsNaN(o.Lambda) || math.IsInf(o.Lambda, 0) || o.Lambda < 0 {
		return fmt.Errorf("core: decay Lambda must be a finite value ≥ 0, got %v", o.Lambda)
	}
	if math.IsNaN(o.MinWeight) || o.MinWeight < 0 || o.MinWeight >= 1 {
		return fmt.Errorf("core: decay MinWeight must be in [0, 1), got %v", o.MinWeight)
	}
	return nil
}

// SweepStats summarises one maintenance sweep.
type SweepStats struct {
	// PointsPruned is the number of observations forgotten, either
	// individually (leaf weight below the floor) or inside a pruned
	// subtree.
	PointsPruned int
	// SubtreesPruned is the number of entries dropped whole: children
	// whose every observation decayed below the floor (pruning a
	// subtree's observations empties it bottom-up, so an emptied child
	// is exactly a below-floor subtree).
	SubtreesPruned int
	// SubtreesCollapsed is the number of underfull children dissolved
	// into their surviving observations for reinsertion, keeping node
	// occupancy invariants intact after pruning.
	SubtreesCollapsed int
	// Reinserted is the number of observations reinserted from collapsed
	// subtrees.
	Reinserted int
}

func (s *SweepStats) add(o SweepStats) {
	s.PointsPruned += o.PointsPruned
	s.SubtreesPruned += o.SubtreesPruned
	s.SubtreesCollapsed += o.SubtreesCollapsed
	s.Reinserted += o.Reinserted
}

// ---------------------------------------------------------------------
// Tree

// EnableDecay switches exponential forgetting on (or reconfigures it).
// It affects how future inserts are weighted and what AdvanceEpoch and
// DecaySweep do; already stored weights are untouched until the next
// sweep.
func (t *Tree) EnableDecay(opts DecayOptions) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	t.decay = opts
	t.queryState.Store(nil)
	return nil
}

// DecayConfig returns the decay options in effect (zero value = off).
func (t *Tree) DecayConfig() DecayOptions { return t.decay }

// Epoch returns the tree's current logical decay epoch.
func (t *Tree) Epoch() int64 { return t.epoch }

// DecayState returns the decay options, the current epoch and the
// reference epoch the stored weights are valued at — what a snapshot
// must carry for a decayed tree to reload digit-identically.
func (t *Tree) DecayState() (opts DecayOptions, epoch, ref int64) {
	return t.decay, t.epoch, t.refEpoch
}

// RestoreDecayState reinstates decay state decoded from a snapshot.
func (t *Tree) RestoreDecayState(opts DecayOptions, epoch, ref int64) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if epoch < ref {
		return fmt.Errorf("core: decay epoch %d before reference %d", epoch, ref)
	}
	t.decay = opts
	t.epoch = epoch
	t.refEpoch = ref
	t.queryState.Store(nil)
	return nil
}

// AdvanceEpoch moves logical time forward by n epochs. Stored state is
// untouched — decay is applied lazily: subsequent inserts carry larger
// amplified weights and Weight() folds the larger outstanding decay
// factor — but the cached query-time constants are dropped, so no
// query observes state from two epochs at once. A no-op when decay is
// disabled.
func (t *Tree) AdvanceEpoch(n int64) {
	if n <= 0 || !t.decay.Enabled() {
		return
	}
	t.epoch += n
	t.queryState.Store(nil)
}

// insertWeight is the amplified weight of an observation inserted now:
// 2^(λ·Δe) relative to the reference epoch the tree's weights are
// stored at. 1 exactly when decay is disabled or no epoch has passed.
func (t *Tree) insertWeight() float64 {
	return stats.GrowthFactor(t.decay.Lambda, t.epoch-t.refEpoch)
}

// Weight returns the tree's effective total mass: the stored root mass
// with the decay outstanding since the last sweep folded in. With decay
// disabled it equals float64(Len()) exactly. This — not the raw point
// count — is what priors and shard mixing must weight by. Cost is one
// pass over the root node (whose summaries insert and sweep keep
// fresh), so per-Learn prior refreshes never rebuild query state.
func (t *Tree) Weight() float64 {
	if !t.decay.Enabled() {
		return float64(t.size)
	}
	if t.size == 0 {
		return 0
	}
	var mass float64
	if t.root.leaf {
		if t.root.weights == nil {
			mass = float64(len(t.root.points))
		} else {
			for _, w := range t.root.weights {
				mass += w
			}
		}
	} else {
		for i := range t.root.entries {
			mass += t.root.entries[i].CF.N
		}
	}
	return mass * stats.DecayFactor(t.decay.Lambda, t.epoch-t.refEpoch)
}

// DecaySweep applies the decay accumulated since the last sweep: every
// leaf weight and cluster feature is rescaled to the current epoch,
// observations whose decayed weight falls below the MinWeight floor
// are pruned (children emptied by that pruning are dropped whole),
// children the pruning left underfull are dissolved and their
// surviving observations reinserted, and single-entry root chains are
// collapsed. The reference epoch is reset to the
// current epoch and the cached query state invalidated. Cost is one
// pass over the tree; call it from a maintenance loop, not per insert.
func (t *Tree) DecaySweep() SweepStats {
	var st SweepStats
	if !t.decay.Enabled() {
		return st
	}
	factor := stats.DecayFactor(t.decay.Lambda, t.epoch-t.refEpoch)
	if factor == 1 && t.decay.MinWeight <= 0 {
		t.refEpoch = t.epoch
		return st
	}
	before := t.size
	var orphanP [][]float64
	var orphanW []float64
	t.sweepNode(t.root, factor, t.decay.MinWeight, &st, &orphanP, &orphanW)
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].Child
	}
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = &Node{leaf: true}
	}
	t.refEpoch = t.epoch
	t.size = countTreePoints(t.root)
	if len(orphanP) > 0 {
		// Orphans carry already-decayed weights and the reference is
		// already current, so reinsertion adds them at face value.
		reinserted := make(map[int]bool)
		for k, p := range orphanP {
			t.insertPointW(p, orphanW[k], reinserted)
		}
		t.size += len(orphanP)
		st.Reinserted = len(orphanP)
	}
	st.PointsPruned = before - t.size
	t.queryState.Store(nil)
	return st
}

// sweepNode decays the subtree under n in place: leaf weights are
// scaled by factor (materialising the weight vector on first need) and
// sub-floor observations dropped; inner entries are re-summarised
// bottom-up, with emptied children pruned whole and underfull
// survivors dissolved into orphan observations for reinsertion.
func (t *Tree) sweepNode(n *Node, factor, floor float64, st *SweepStats, orphanP *[][]float64, orphanW *[]float64) {
	if n.leaf {
		if factor != 1 && n.weights == nil && len(n.points) > 0 {
			n.weights = make([]float64, len(n.points))
			for i := range n.weights {
				n.weights[i] = 1
			}
		}
		if n.weights == nil {
			return
		}
		kept := 0
		for i := range n.points {
			w := n.weights[i] * factor
			if floor > 0 && w < floor {
				continue
			}
			n.points[kept] = n.points[i]
			n.weights[kept] = w
			kept++
		}
		clear(n.points[kept:])
		n.points = n.points[:kept]
		n.weights = n.weights[:kept]
		return
	}
	kept := 0
	for i := range n.entries {
		child := n.entries[i].Child
		t.sweepNode(child, factor, floor, st, orphanP, orphanW)
		// A non-empty child's mass is a sum of leaf weights the pass
		// above already held to the floor, so no separate subtree mass
		// check is needed: below-floor subtrees are exactly the emptied
		// ones.
		if childEmpty(child) {
			st.SubtreesPruned++
			continue
		}
		underfull := (child.leaf && len(child.points) < t.cfg.MinLeaf) ||
			(!child.leaf && len(child.entries) < t.cfg.MinFanout)
		if underfull {
			collectWeightedPoints(child, orphanP, orphanW)
			st.SubtreesCollapsed++
			continue
		}
		n.entries[kept] = t.summarize(child)
		kept++
	}
	clear(n.entries[kept:])
	n.entries = n.entries[:kept]
}

func childEmpty(n *Node) bool {
	return (n.leaf && len(n.points) == 0) || (!n.leaf && len(n.entries) == 0)
}

func countTreePoints(n *Node) int {
	if n.leaf {
		return len(n.points)
	}
	c := 0
	for i := range n.entries {
		c += countTreePoints(n.entries[i].Child)
	}
	return c
}

// collectWeightedPoints gathers every observation under n with its
// weight (1 for unweighted leaves), for dissolving subtrees.
func collectWeightedPoints(n *Node, pts *[][]float64, ws *[]float64) {
	if n.leaf {
		*pts = append(*pts, n.points...)
		if n.weights != nil {
			*ws = append(*ws, n.weights...)
			return
		}
		for range n.points {
			*ws = append(*ws, 1)
		}
		return
	}
	for i := range n.entries {
		collectWeightedPoints(n.entries[i].Child, pts, ws)
	}
}

// ---------------------------------------------------------------------
// MultiTree

// EnableDecay switches exponential forgetting on (or reconfigures it),
// as Tree.EnableDecay does for a per-class tree.
func (t *MultiTree) EnableDecay(opts DecayOptions) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	t.decay = opts
	t.invalidate(nil, 0, allClasses)
	return nil
}

// DecayConfig returns the decay options in effect (zero value = off).
func (t *MultiTree) DecayConfig() DecayOptions { return t.decay }

// Epoch returns the tree's current logical decay epoch.
func (t *MultiTree) Epoch() int64 { return t.epoch }

// DecayState returns the decay options, current epoch and reference
// epoch, for snapshotting.
func (t *MultiTree) DecayState() (opts DecayOptions, epoch, ref int64) {
	return t.decay, t.epoch, t.refEpoch
}

// RestoreDecayState reinstates decay state decoded from a snapshot.
func (t *MultiTree) RestoreDecayState(opts DecayOptions, epoch, ref int64) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if epoch < ref {
		return fmt.Errorf("core: decay epoch %d before reference %d", epoch, ref)
	}
	t.decay = opts
	t.epoch = epoch
	t.refEpoch = ref
	t.invalidate(nil, 0, allClasses)
	return nil
}

// AdvanceEpoch moves logical time forward by n epochs, invalidating the
// cached query-time constants (see Tree.AdvanceEpoch).
func (t *MultiTree) AdvanceEpoch(n int64) {
	if n <= 0 || !t.decay.Enabled() {
		return
	}
	t.epoch += n
	t.invalidate(nil, 0, allClasses)
}

func (t *MultiTree) insertWeight() float64 {
	return stats.GrowthFactor(t.decay.Lambda, t.epoch-t.refEpoch)
}

// Weight returns the tree's effective total mass (see Tree.Weight).
// With decay disabled it equals float64(Len()) exactly. As there, the
// mass is read from the root level directly — no query-state rebuild.
func (t *MultiTree) Weight() float64 {
	if !t.decay.Enabled() {
		return float64(t.size)
	}
	if t.size == 0 {
		return 0
	}
	var mass float64
	if t.root.leaf {
		if t.root.weights == nil {
			mass = float64(len(t.root.points))
		} else {
			for _, w := range t.root.weights {
				mass += w
			}
		}
	} else {
		for i := range t.root.entries {
			mass += t.root.entries[i].Total.N
		}
	}
	return mass * stats.DecayFactor(t.decay.Lambda, t.epoch-t.refEpoch)
}

// CountNodes returns the number of tree nodes (inner and leaf) — the
// bounded-memory observable a drift-tracking server reports.
func (t *MultiTree) CountNodes() int {
	var walk func(n *MultiNode) int
	walk = func(n *MultiNode) int {
		if n.leaf {
			return 1
		}
		c := 1
		for i := range n.entries {
			c += walk(n.entries[i].Child)
		}
		return c
	}
	return walk(t.root)
}

// DecaySweep applies the decay accumulated since the last sweep (see
// Tree.DecaySweep): rescale, prune below the floor, collapse underfull
// children, reset the reference epoch, recompute the per-class masses
// and invalidate the cached query state.
func (t *MultiTree) DecaySweep() SweepStats {
	var st SweepStats
	if !t.decay.Enabled() {
		return st
	}
	factor := stats.DecayFactor(t.decay.Lambda, t.epoch-t.refEpoch)
	if factor == 1 && t.decay.MinWeight <= 0 {
		t.refEpoch = t.epoch
		return st
	}
	before := t.size
	var orphans []LabeledPoint
	var orphanW []float64
	t.sweepMultiNode(t.root, factor, t.decay.MinWeight, &st, &orphans, &orphanW)
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].Child
	}
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = &MultiNode{leaf: true}
	}
	t.refEpoch = t.epoch
	// Invalidated before the reinserts, so none of them patches query
	// constants the sweep has already outdated; the class masses they
	// would be patched from are only recomputed below.
	t.invalidate(nil, 0, allClasses)
	for k, p := range orphans {
		t.insertPointW(p, orphanW[k], t.index[p.Label])
	}
	st.Reinserted = len(orphans)
	t.size = countMultiPoints(t.root)
	root := t.summarize(t.root)
	for c := range t.counts {
		t.counts[c] = root.CFs[c].N
	}
	st.PointsPruned = before - t.size
	return st
}

// sweepMultiNode is sweepNode for the multi-class tree.
func (t *MultiTree) sweepMultiNode(n *MultiNode, factor, floor float64, st *SweepStats, orphans *[]LabeledPoint, orphanW *[]float64) {
	if n.leaf {
		if factor != 1 && n.weights == nil && len(n.points) > 0 {
			n.weights = make([]float64, len(n.points))
			for i := range n.weights {
				n.weights[i] = 1
			}
		}
		if n.weights == nil {
			return
		}
		kept := 0
		for i := range n.points {
			w := n.weights[i] * factor
			if floor > 0 && w < floor {
				continue
			}
			n.points[kept] = n.points[i]
			n.weights[kept] = w
			kept++
		}
		clear(n.points[kept:])
		n.points = n.points[:kept]
		n.weights = n.weights[:kept]
		return
	}
	kept := 0
	for i := range n.entries {
		child := n.entries[i].Child
		t.sweepMultiNode(child, factor, floor, st, orphans, orphanW)
		// As in Tree.sweepNode: below-floor subtrees are exactly the
		// children the leaf pass emptied.
		empty := (child.leaf && len(child.points) == 0) || (!child.leaf && len(child.entries) == 0)
		if empty {
			st.SubtreesPruned++
			continue
		}
		underfull := (child.leaf && len(child.points) < t.cfg.MinLeaf) ||
			(!child.leaf && len(child.entries) < t.cfg.MinFanout)
		if underfull {
			collectWeightedMultiPoints(child, orphans, orphanW)
			st.SubtreesCollapsed++
			continue
		}
		n.entries[kept] = t.summarize(child)
		kept++
	}
	clear(n.entries[kept:])
	n.entries = n.entries[:kept]
}

func countMultiPoints(n *MultiNode) int {
	if n.leaf {
		return len(n.points)
	}
	c := 0
	for i := range n.entries {
		c += countMultiPoints(n.entries[i].Child)
	}
	return c
}

func collectWeightedMultiPoints(n *MultiNode, pts *[]LabeledPoint, ws *[]float64) {
	if n.leaf {
		*pts = append(*pts, n.points...)
		if n.weights != nil {
			*ws = append(*ws, n.weights...)
			return
		}
		for range n.points {
			*ws = append(*ws, 1)
		}
		return
	}
	for i := range n.entries {
		collectWeightedMultiPoints(n.entries[i].Child, pts, ws)
	}
}

// ---------------------------------------------------------------------
// Classifier

// EnableDecay switches exponential forgetting on for every class tree.
func (c *Classifier) EnableDecay(opts DecayOptions) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	for _, t := range c.trees {
		if err := t.EnableDecay(opts); err != nil {
			return err
		}
	}
	return nil
}

// AdvanceEpoch moves every class tree's logical time forward by n
// epochs.
func (c *Classifier) AdvanceEpoch(n int64) {
	for _, t := range c.trees {
		t.AdvanceEpoch(n)
	}
}

// DecaySweep runs the maintenance sweep on every class tree and
// refreshes the class priors from the decayed masses. A class whose
// tree decays empty keeps a −Inf prior until new observations arrive.
func (c *Classifier) DecaySweep() SweepStats {
	var st SweepStats
	for _, t := range c.trees {
		st.add(t.DecaySweep())
	}
	c.refreshPriors()
	return st
}

// AdvanceDecay advances one decay epoch and immediately sweeps — the
// single-call form maintenance loops and stream runners use.
func (c *Classifier) AdvanceDecay() SweepStats {
	c.AdvanceEpoch(1)
	return c.DecaySweep()
}

// refreshPriors recomputes the log class priors from the trees'
// effective masses. With decay disabled Weight() is exactly
// float64(Len()), so this is digit-identical to the count-based priors.
func (c *Classifier) refreshPriors() {
	if cap(c.priorBuf) < len(c.trees) {
		c.priorBuf = make([]float64, len(c.trees))
	}
	ws := c.priorBuf[:len(c.trees)]
	var total float64
	for i, t := range c.trees {
		ws[i] = t.Weight()
		total += ws[i]
	}
	for i := range c.logPriors {
		if ws[i] > 0 && total > 0 {
			c.logPriors[i] = math.Log(ws[i] / total)
		} else {
			c.logPriors[i] = math.Inf(-1)
		}
	}
}
