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
// Time is logical and moves one way: AdvanceDecay advances the tree's
// epoch by one and applies it at once, decaying every cluster feature
// and leaf weight by 2^(−λ), pruning what has faded below the
// configured floor and collapsing subtrees the pruning left underfull.
// Stored weights are therefore always valued at the current epoch: an
// insert stores weight 1, and Weight() is the stored root mass.
//
// AdvanceDecay drops the cached query state (it calls invalidate with no
// path), so no query ever mixes state from two decay epochs. With decay
// disabled (λ = 0) every path below is bypassed and behaviour is
// digit-identical to an undecayed tree.

// DecayOptions configure exponential forgetting on a tree.
type DecayOptions struct {
	// Lambda is the decay rate: a weight fades by 2^(−Lambda·Δe) over Δe
	// decay epochs. Zero disables decay entirely (the default).
	Lambda float64
	// MinWeight is the pruning floor of the maintenance sweep:
	// observations whose decayed weight falls below it are forgotten
	// (subtrees whose observations all fade empty out bottom-up and
	// are dropped whole). Zero keeps an observation until its weight
	// underflows to 0 (weights still fade).
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

// Add accumulates another sweep's statistics into s.
func (s *SweepStats) Add(o SweepStats) {
	s.PointsPruned += o.PointsPruned
	s.SubtreesPruned += o.SubtreesPruned
	s.SubtreesCollapsed += o.SubtreesCollapsed
	s.Reinserted += o.Reinserted
}

// ---------------------------------------------------------------------
// The clock and the sweep

// decayClock is a tree's logical decay time, embedded in MultiTree:
// decay configures exponential forgetting (zero value = off) and epoch
// counts the decay steps taken.
type decayClock struct {
	decay DecayOptions
	epoch int64
}

// DecayConfig returns the decay options in effect (zero value = off).
func (d *decayClock) DecayConfig() DecayOptions { return d.decay }

// Epoch returns the tree's current logical decay epoch.
func (d *decayClock) Epoch() int64 { return d.epoch }

// DecayState returns the decay options and the current epoch — what a
// snapshot must carry for a decayed tree to reload digit-identically.
func (d *decayClock) DecayState() (opts DecayOptions, epoch int64) {
	return d.decay, d.epoch
}

// sweeper is one maintenance sweep in progress: the rescale factor and
// pruning floor, the tree swept, and what the sweep has found so far —
// its statistics and the observations of dissolved subtrees, with their
// weights, awaiting reinsertion.
type sweeper struct {
	factor, floor float64
	t             *MultiTree
	st            SweepStats
	orphans       []LabeledPoint
	orphanW       []float64
}

// sweep decays the subtree under n in place: leaf weights are scaled by
// factor (materialising the weight vector on first need) and sub-floor
// observations dropped; inner entries are re-summarised bottom-up, with
// emptied children pruned whole and underfull survivors dissolved into
// orphan observations for reinsertion.
func (s *sweeper) sweep(n *MultiNode) {
	if n.leaf {
		if s.factor != 1 && n.weights == nil && len(n.points) > 0 {
			n.weights = unitWeights(len(n.points))
		}
		if n.weights == nil {
			return
		}
		kept := 0
		for i := range n.points {
			// A weight that underflowed to 0 holds no mass, and no
			// snapshot may store it: it goes whatever the floor.
			w := n.weights[i] * s.factor
			if w < s.floor || w == 0 {
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
		s.sweep(child)
		// A non-empty child's mass is a sum of leaf weights the pass
		// above already held to the floor, so no separate subtree mass
		// check is needed: below-floor subtrees are exactly the emptied
		// ones.
		if len(child.points) == 0 && len(child.entries) == 0 {
			s.st.SubtreesPruned++
			continue
		}
		underfull := (child.leaf && len(child.points) < s.t.cfg.MinLeaf) ||
			(!child.leaf && len(child.entries) < s.t.cfg.MinFanout)
		if underfull {
			s.orphans, s.orphanW = collectWeightedPoints(child, s.orphans, s.orphanW)
			s.st.SubtreesCollapsed++
			continue
		}
		n.entries[kept] = s.t.summarize(child)
		kept++
	}
	clear(n.entries[kept:])
	n.entries = n.entries[:kept]
}

// ---------------------------------------------------------------------
// MultiTree

// EnableDecay switches exponential forgetting on (or reconfigures it).
// Stored weights are untouched; the options rule the next AdvanceDecay.
func (t *MultiTree) EnableDecay(opts DecayOptions) error {
	return t.RestoreDecayState(opts, t.epoch)
}

// RestoreDecayState reinstates decay state decoded from a snapshot.
func (t *MultiTree) RestoreDecayState(opts DecayOptions, epoch int64) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	t.decayClock = decayClock{decay: opts, epoch: epoch}
	t.invalidate(nil, 0, allClasses)
	t.publish()
	return nil
}

// Weight returns the tree's effective total mass: the stored root mass,
// which every decay step has already rescaled. With decay disabled it
// equals float64(Len()) exactly. This — not the raw point count — is
// what priors and shard mixing must weight by. The mass is read from the
// root level directly — one pass over the root node, whose summaries
// insert and sweep keep fresh; no query-state rebuild.
func (t *MultiTree) Weight() float64 {
	if !t.decay.Enabled() {
		return float64(t.size)
	}
	if t.size == 0 {
		return 0
	}
	var mass float64
	switch root := t.root; {
	case !root.leaf:
		for i := range root.entries {
			mass += root.entries[i].Total.N
		}
	case root.weights == nil:
		mass = float64(len(root.points))
	default:
		for _, w := range root.weights {
			mass += w
		}
	}
	return mass
}

// CountNodes returns the number of tree nodes (inner and leaf) — the
// bounded-memory observable a drift-tracking server reports.
func (t *MultiTree) CountNodes() int { return countNodes(t.root) }

// AdvanceDecay advances the tree one decay epoch and applies it: every
// leaf weight and cluster feature is rescaled by 2^(−λ), observations
// whose weight falls below the MinWeight floor are pruned (children
// emptied by that pruning are dropped whole), children the pruning left
// underfull are dissolved and their observations reinserted at their
// decayed weights, single-entry root chains are collapsed, and the
// per-class masses and point counts are recomputed. The cached query
// state is dropped. Cost is one pass over the tree. A no-op when decay
// is disabled.
func (t *MultiTree) AdvanceDecay() SweepStats {
	if !t.decay.Enabled() {
		return SweepStats{}
	}
	t.epoch++
	// Invalidated before the reinserts, so none of them patches query
	// constants the sweep outdates; the class masses they would be
	// patched from are only recomputed below.
	t.invalidate(nil, 0, allClasses)
	s := &sweeper{factor: stats.DecayFactor(t.decay.Lambda, 1), floor: t.decay.MinWeight, t: t}
	root := t.root
	s.sweep(root)
	for !root.leaf && len(root.entries) == 1 {
		root = root.entries[0].Child
	}
	if !root.leaf && len(root.entries) == 0 {
		root = &MultiNode{leaf: true}
	}
	t.root = root
	for k, p := range s.orphans {
		t.insertPointW(p, s.orphanW[k], t.index[p.Label])
	}
	s.st.Reinserted = len(s.orphans)
	before := t.size
	t.size = countPoints(t.root)
	sum := t.summarize(t.root)
	for c := range t.counts {
		t.counts[c] = sum.CFs[c].N
	}
	clear(t.npoints)
	masses := make([]float64, len(t.labels))
	// Every label in the tree is one of its classes: the walk cannot fail.
	_ = checkNodes(t.root, true, func(n *MultiNode, _ bool) error { return t.addMasses(masses, t.npoints, n) })
	s.st.PointsPruned = before - t.size
	t.publish()
	return s.st
}

// ---------------------------------------------------------------------
// Classifier

// EnableDecay switches exponential forgetting on for every class tree.
func (c *Classifier) EnableDecay(opts DecayOptions) error {
	for _, t := range c.trees {
		if err := t.EnableDecay(opts); err != nil {
			return err
		}
	}
	return nil
}

// AdvanceDecay advances every class tree one decay epoch and applies
// it (MultiTree.AdvanceDecay), then refreshes the class priors from the
// decayed masses. A class whose tree decays empty keeps a −Inf prior
// until new observations arrive.
func (c *Classifier) AdvanceDecay() SweepStats {
	var st SweepStats
	for _, t := range c.trees {
		st.Add(t.AdvanceDecay())
	}
	c.refreshPriors()
	return st
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
