// Package clustree implements the anytime-clustering extension sketched in
// Section 4.2 of the paper (the design that later became ClusTree): a
// balanced index of cluster features maintained under anytime constraints
// on a data stream.
//
// The key mechanisms, all named in the paper:
//
//   - exponential decay — entry weights fade as 2^(−λ·Δt), keeping an
//     up-to-date view of the evolving distribution in constant space. An
//     entry's CFs are valid as of its own timestamp; a write brings them
//     forward, a read computes their faded values and stores none.
//     Comparisons of means and radii need no decay (scaling a CF moves
//     neither, and decays compose), so a descent fades the one entry
//     per level it writes to, not the ones it walks past;
//   - CF additivity — entries aggregate, subtract and compare snapshots
//     from arbitrary points in time;
//   - parked insertions — when the stream leaves no time to reach a leaf,
//     the object is aggregated into a buffer CF at the entry where the
//     descent was interrupted ("park insertion objects in inner nodes");
//   - hitchhikers — a later descent through that entry takes the buffered
//     mass along, so parked objects eventually reach leaf level;
//   - self-adaptation — under sustained pressure objects park higher up
//     and no splits occur, so the tree size adapts to the stream speed.
//
// Leaf entries are micro-clusters; MicroClusters exposes them and
// MacroCluster groups them density-based (as in [5]) for the final
// clustering.
package clustree

import (
	"fmt"
	"math"
	"slices"

	"bayestree/internal/stats"
)

// The leaf shape and the absorption rule. A leaf holds at most
// MaxLeafEntries micro-clusters. An arriving object joins its nearest
// micro-cluster when within MergeThreshold radii of its mean, or within
// AbsorbDistance whatever the radius — the floor that keeps tight
// sources from fragmenting into near-zero-radius swarms on unit-cube
// data.
const (
	MaxLeafEntries = 8
	MergeThreshold = 3
	AbsorbDistance = 0.03
)

// Config parameterises the clustering tree.
type Config struct {
	// Dim is the observation dimensionality.
	Dim int
	// MaxFanout (M) bounds inner-node entry counts.
	MaxFanout int
	// Lambda is the decay rate: a weight halves every 1/Lambda time units.
	// Zero disables decay.
	Lambda float64
}

// DefaultConfig mirrors the Bayes tree's emulated page fanout.
func DefaultConfig(dim int) Config {
	return Config{Dim: dim, MaxFanout: 4, Lambda: 0.01}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Dim < 1 {
		return fmt.Errorf("clustree: Dim must be ≥ 1, got %d", c.Dim)
	}
	if c.MaxFanout < 2 {
		return fmt.Errorf("clustree: MaxFanout must be ≥ 2, got %d", c.MaxFanout)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("clustree: Lambda must be ≥ 0, got %v", c.Lambda)
	}
	return nil
}

// entry is a tree entry: the decayed cluster feature of its subtree (or
// micro-cluster, at leaf level), the buffer of parked objects and the
// timestamp of the last decay application.
type entry struct {
	cf     stats.CF
	buffer stats.CF
	child  *node // nil at leaf level
	ts     float64
}

type node struct {
	leaf    bool
	entries []*entry
}

// Tree is the anytime clustering index. Its reads write nothing and may
// run at once; a write (Insert, Prune, SetLambda) needs it to itself.
type Tree struct {
	cfg     Config
	root    *node
	now     float64
	inserts int
	parked  int
	merges  int
	splits  int

	// Scratch of the insert in progress, kept so a split-free insert
	// allocates nothing: the inner nodes of its descent and the mass it
	// carries (the object plus the hitchhikers picked up so far).
	path []*node
	mass stats.CF
}

// New creates an empty clustering tree.
func New(cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tree{cfg: cfg, root: &node{leaf: true}, mass: stats.NewCF(cfg.Dim)}, nil
}

// Now returns the tree's current time (the largest insertion timestamp).
func (t *Tree) Now() float64 { return t.now }

// Inserts returns the number of objects inserted.
func (t *Tree) Inserts() int { return t.inserts }

// Parked returns how many insertions ended in a buffer instead of a leaf.
func (t *Tree) Parked() int { return t.parked }

// Splits returns how many leaf splits occurred.
func (t *Tree) Splits() int { return t.splits }

// Merges returns how many arriving objects (or overflow entries) were
// absorbed into an existing micro-cluster instead of opening a new one.
func (t *Tree) Merges() int { return t.merges }

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// SetLambda changes the decay rate for all future decay applications.
// Mass already faded keeps its current value; only fading from now on
// uses the new rate. This is how a serving layer overrides the decay of
// a warm-started tree.
func (t *Tree) SetLambda(lambda float64) error {
	if lambda < 0 {
		return fmt.Errorf("clustree: Lambda must be ≥ 0, got %v", lambda)
	}
	if lambda != t.cfg.Lambda {
		// Entries are as stale as their last write: bring every one of
		// them to now at the rate that applied so far.
		t.fadeAll(t.root)
		t.cfg.Lambda = lambda
	}
	return nil
}

// fadeAll decays every entry below n to the tree's current time.
func (t *Tree) fadeAll(n *node) {
	for _, e := range n.entries {
		t.decay(e, t.now)
		if !n.leaf {
			t.fadeAll(e.child)
		}
	}
}

// CountNodes returns the number of tree nodes (inner and leaf), the
// memory-bound observable of a decaying clustering tree.
func (t *Tree) CountNodes() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		total := 1
		if !n.leaf {
			for _, e := range n.entries {
				total += walk(e.child)
			}
		}
		return total
	}
	return walk(t.root)
}

// ApproxBytes estimates the tree's resident memory from its shape: a
// node is a header and one pointer per entry, an entry two cluster
// features of two Dim-vectors each. The tree stores no objects, so its
// size follows the micro-cluster count, not the insert count.
func (t *Tree) ApproxBytes() int64 {
	const word, slice int64 = 8, 24
	nodeBytes := word + slice
	// The entry, its slot in the node, its two CFs.
	entryBytes := 3*word + 2*(word+2*slice+2*word*int64(t.cfg.Dim))
	var walk func(n *node) int64
	walk = func(n *node) int64 {
		total := nodeBytes + int64(len(n.entries))*entryBytes
		if !n.leaf {
			for _, e := range n.entries {
				total += walk(e.child)
			}
		}
		return total
	}
	return walk(t.root)
}

// fade returns the factors that bring an entry's CF and buffer forward
// to time ts: 2^(−λ·(ts − e.ts)), but 1 for an empty buffer. decay
// scales by them; a read multiplies as it sums, to the same bits.
func (t *Tree) fade(e *entry, ts float64) (w, wb float64) {
	w, wb = 1, 1
	if t.cfg.Lambda != 0 && ts > e.ts {
		w = math.Exp2(-t.cfg.Lambda * (ts - e.ts))
	}
	if e.buffer.N != 0 {
		wb = w
	}
	return w, wb
}

// decay brings an entry's CFs forward to time ts. It is called where
// mass is written into an entry; comparing entries by mean or radius
// needs none.
func (t *Tree) decay(e *entry, ts float64) {
	if w, wb := t.fade(e, ts); w != 1 {
		e.cf.Scale(w)
		e.buffer.Scale(wb)
	}
	e.ts = math.Max(e.ts, ts)
}

// Insert adds an object observed at timestamp ts with a budget of node
// visits. A budget that runs out parks the object (plus any hitchhikers
// collected on the way) in the deepest reached entry's buffer; a budget
// < 0 means unlimited. Timestamps must be non-decreasing and coordinates
// finite: a NaN or ±Inf merged into a cluster feature would turn every
// mean above it into NaN for good.
func (t *Tree) Insert(x []float64, ts float64, budget int) error {
	_, err := t.InsertCounted(x, ts, budget)
	return err
}

// InsertCounted is Insert reporting the node visits actually spent —
// the anytime work accounting a serving layer's admission controller
// settles against its grants. Every node examined counts: the inner
// nodes stepped through, the node whose entry the object parked in,
// and the leaf it merged into — so reaching the terminal node can cost
// one visit more than the budget that bounded the descent.
func (t *Tree) InsertCounted(x []float64, ts float64, budget int) (visited int, err error) {
	if len(x) != t.cfg.Dim {
		return 0, fmt.Errorf("clustree: point dim %d != %d", len(x), t.cfg.Dim)
	}
	if err := stats.CheckPoint(x); err != nil {
		return 0, fmt.Errorf("clustree: %w", err)
	}
	if ts < t.now {
		return 0, fmt.Errorf("clustree: timestamp %v precedes current time %v", ts, t.now)
	}
	t.now = ts
	t.inserts++

	t.mass.Reset()
	t.mass.Add(x)
	t.path = t.path[:0]
	n := t.root
	for !n.leaf {
		t.path = append(t.path, n)
		e := t.closestEntry(n, x, ts)
		if budget == 0 {
			// Out of time: park the object in the closest entry's buffer
			// (finding that entry reads this node, hence the +1).
			e.buffer.Merge(t.mass)
			t.parked++
			return visited + 1, nil
		}
		// The insertion mass (object + hitchhikers) joins the subtree
		// summary on the way down.
		e.cf.Merge(t.mass)
		// Take parked mass along (the hitchhiker mechanism): it travels
		// with us toward leaf level. The mass moves from "at this entry"
		// into the subtree below it, so it joins e.cf now.
		if e.buffer.N > 0 {
			e.cf.Merge(e.buffer)
			t.mass.Merge(e.buffer)
			e.buffer.Reset()
		}
		n = e.child
		visited++
		if budget > 0 {
			budget--
		}
	}
	// Leaf level: absorb into the closest micro-cluster or open a new one.
	t.insertLeaf(n, x, ts, budget)
	visited++
	return visited, nil
}

// closestEntry returns the entry whose mean is nearest to x (empty
// entries lose), brought forward to ts: it is the one the caller writes
// to. The others are compared as stored.
func (t *Tree) closestEntry(n *node, x []float64, ts float64) *entry {
	var best *entry
	bestD := math.Inf(1)
	for _, e := range n.entries {
		if e.cf.N <= 0 && e.buffer.N <= 0 {
			continue
		}
		d := sqDistToMean(&e.cf, x)
		if d < bestD {
			best, bestD = e, d
		}
	}
	if best == nil {
		best = n.entries[0]
	}
	t.decay(best, ts)
	return best
}

// insertLeaf merges the carried mass into a micro-cluster or creates one.
func (t *Tree) insertLeaf(n *node, x []float64, ts float64, budget int) {
	var best *entry
	bestD := math.Inf(1)
	for _, e := range n.entries {
		if e.cf.N <= 0 {
			continue
		}
		d := math.Sqrt(sqDistToMean(&e.cf, x))
		if d < bestD {
			best, bestD = e, d
		}
	}
	if best != nil {
		absorb := max(MergeThreshold*best.cf.Radius(), AbsorbDistance)
		if bestD <= absorb || (len(n.entries) >= MaxLeafEntries && budget == 0) {
			t.decay(best, ts)
			best.cf.Merge(t.mass)
			t.merges++
			return
		}
	}
	// The new micro-cluster owns its vectors; the scratch is reused.
	n.entries = append(n.entries, &entry{cf: t.mass.Clone(), buffer: stats.NewCF(t.cfg.Dim), ts: ts})
	if len(n.entries) > MaxLeafEntries {
		if budget == 0 {
			// No time to split: merge the two closest micro-clusters —
			// the self-adaptation that keeps the tree size matched to the
			// stream speed.
			t.mergeClosest(n)
			return
		}
		t.splitLeafUp(n, ts)
	}
}

// mergeClosest merges the two closest entries of a leaf, brought to a
// common time first: stored CFs add only at equal timestamps.
func (t *Tree) mergeClosest(n *node) {
	bi, bj, bd := -1, -1, math.Inf(1)
	for i := 0; i < len(n.entries); i++ {
		for j := i + 1; j < len(n.entries); j++ {
			d := sqDist(n.entries[i].cf.Mean(), n.entries[j].cf.Mean())
			if d < bd {
				bi, bj, bd = i, j, d
			}
		}
	}
	if bi < 0 {
		return
	}
	t.decay(n.entries[bi], t.now)
	t.decay(n.entries[bj], t.now)
	n.entries[bi].cf.Merge(n.entries[bj].cf)
	n.entries[bi].buffer.Merge(n.entries[bj].buffer)
	n.entries = append(n.entries[:bj], n.entries[bj+1:]...)
	t.merges++
}

// splitLeafUp splits an overflowing leaf and propagates upward along
// the descent path, growing the root if needed (balanced growth as in
// R-trees).
func (t *Tree) splitLeafUp(n *node, ts float64) {
	t.splits++
	left, right := t.splitNode(n)
	for i := len(t.path) - 1; i >= 0; i-- {
		parent := t.path[i]
		// Replace the entry pointing at n with entries for the halves.
		idx := -1
		for j, e := range parent.entries {
			if e.child == n {
				idx = j
				break
			}
		}
		le, re := t.summarizeEntry(left, ts), t.summarizeEntry(right, ts)
		if idx >= 0 {
			// Preserve the parked buffer of the replaced entry.
			le.buffer.Merge(parent.entries[idx].buffer)
			parent.entries[idx] = le
			parent.entries = append(parent.entries, re)
		}
		if len(parent.entries) <= t.cfg.MaxFanout {
			return
		}
		n = parent
		left, right = t.splitNode(parent)
	}
	// Root split.
	newRoot := &node{entries: []*entry{
		t.summarizeEntry(left, ts),
		t.summarizeEntry(right, ts),
	}}
	t.root = newRoot
}

// summarizeEntry builds a parent entry over a node: children are decayed
// to the common timestamp ts, then their CFs and parked buffers are
// summed (buffers below an entry count toward its subtree weight).
func (t *Tree) summarizeEntry(n *node, ts float64) *entry {
	e := &entry{cf: stats.NewCF(t.cfg.Dim), buffer: stats.NewCF(t.cfg.Dim), child: n, ts: ts}
	for _, c := range n.entries {
		t.decay(c, ts)
		e.cf.Merge(c.cf)
		e.cf.Merge(c.buffer)
	}
	return e
}

// splitNode splits by the dimension of largest extent of entry means
// (fast single-pass heuristic; clustering quality is dominated by decay
// and merge behaviour, not the split rule).
func (t *Tree) splitNode(n *node) (left, right *node) {
	dim := t.cfg.Dim
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for k := 0; k < dim; k++ {
		lo[k], hi[k] = math.Inf(1), math.Inf(-1)
	}
	means := make([][]float64, len(n.entries))
	for i, e := range n.entries {
		m := e.cf.Mean()
		means[i] = m
		for k, v := range m {
			if v < lo[k] {
				lo[k] = v
			}
			if v > hi[k] {
				hi[k] = v
			}
		}
	}
	axis, best := 0, -1.0
	for k := 0; k < dim; k++ {
		if ext := hi[k] - lo[k]; ext > best {
			axis, best = k, ext
		}
	}
	mid := (lo[axis] + hi[axis]) / 2
	l := &node{leaf: n.leaf}
	r := &node{leaf: n.leaf}
	for i, e := range n.entries {
		if means[i][axis] <= mid {
			l.entries = append(l.entries, e)
		} else {
			r.entries = append(r.entries, e)
		}
	}
	// Guarantee non-empty halves.
	if len(l.entries) == 0 {
		l.entries = append(l.entries, r.entries[len(r.entries)-1])
		r.entries = r.entries[:len(r.entries)-1]
	}
	if len(r.entries) == 0 {
		r.entries = append(r.entries, l.entries[len(l.entries)-1])
		l.entries = l.entries[:len(l.entries)-1]
	}
	return l, r
}

// MicroCluster is a leaf-level cluster feature at a common timestamp.
type MicroCluster struct {
	CF     stats.CF
	Weight float64
	Mean   []float64
	Radius float64
}

// MicroClusters returns all micro-clusters (including parked buffer mass,
// which is folded into its entry) faded to the tree's current time,
// dropping those whose weight fell below minWeight.
func (t *Tree) MicroClusters(minWeight float64) []MicroCluster {
	return t.AppendMicroClusters(nil, minWeight)
}

// AppendMicroClusters appends what MicroClusters returns to dst. An
// element of dst's spare capacity lends its CF and Mean vectors to the
// micro-cluster written over it, so a reader that keeps one buffer
// allocates only when the count or the dimension grows.
func (t *Tree) AppendMicroClusters(dst []MicroCluster, minWeight float64) []MicroCluster {
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			if !n.leaf {
				walk(e.child)
				continue
			}
			w, wb := t.fade(e, t.now)
			weight := e.weight(w, wb)
			if weight < minWeight {
				continue
			}
			dst = slices.Grow(dst, 1)[:len(dst)+1]
			mc := &dst[len(dst)-1]
			cf := &mc.CF
			cf.N, cf.LS, cf.SS = weight, resize(cf.LS, t.cfg.Dim), resize(cf.SS, t.cfg.Dim)
			for i := range cf.LS {
				cf.LS[i] = float64(e.cf.LS[i]*w) + float64(e.buffer.LS[i]*wb)
				cf.SS[i] = float64(e.cf.SS[i]*w) + float64(e.buffer.SS[i]*wb)
			}
			mc.Weight, mc.Mean, mc.Radius = cf.N, cf.MeanInto(resize(mc.Mean, t.cfg.Dim)), cf.Radius()
		}
	}
	walk(t.root)
	return dst
}

// weight is the entry's CF and buffer weight scaled by fade's factors
// and summed, rounded as decay and then a sum would round them.
func (e *entry) weight(w, wb float64) float64 {
	return float64(e.cf.N*w) + float64(e.buffer.N*wb)
}

// resize returns v at length n, reusing its array when it is big enough.
func resize(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// MicroClusterCount returns how many micro-clusters MicroClusters
// would report at the given floor, without materialising them — the
// allocation-free form a stats endpoint polls.
func (t *Tree) MicroClusterCount(minWeight float64) int {
	count := 0
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			if n.leaf {
				if e.weight(t.fade(e, t.now)) >= minWeight {
					count++
				}
				continue
			}
			walk(e.child)
		}
	}
	walk(t.root)
	return count
}

// Weight returns the total (faded) weight stored in the tree, parked
// mass included. With λ > 0 this is less than Inserts().
func (t *Tree) Weight() float64 {
	var total float64
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			w, wb := t.fade(e, t.now)
			total += float64(e.buffer.N * wb)
			if n.leaf {
				total += float64(e.cf.N * w)
			} else {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	return total
}

// Validate checks the decayed-CF consistency invariant: each inner entry's
// CF weight is at least the sum of its subtree's leaf and buffer weights
// below it (decay makes exact equality hold only at a common timestamp, so
// the check fades everything to now and allows small tolerance).
func (t *Tree) Validate() error {
	var walk func(n *node) (float64, error)
	walk = func(n *node) (float64, error) {
		var total float64
		for _, e := range n.entries {
			w, wb := t.fade(e, t.now)
			if n.leaf {
				total += e.weight(w, wb)
				continue
			}
			below, err := walk(e.child)
			if err != nil {
				return 0, err
			}
			below += float64(e.buffer.N * wb)
			if weight := e.weight(w, wb); weight+1e-6 < below {
				return 0, fmt.Errorf("clustree: entry weight %v below subtree weight %v", weight, below)
			}
			total += below
		}
		return total, nil
	}
	_, err := walk(t.root)
	return err
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// sqDistToMean is sqDist(cf.Mean(), x), to the bit, without the mean
// being built: a descent asks it of every entry of every node it
// passes. Each coordinate of the mean is rounded as Mean stores it (the
// conversion keeps a compiler from fusing it into the subtraction), and
// an empty feature's mean is the zero vector.
func sqDistToMean(cf *stats.CF, x []float64) float64 {
	var s float64
	if cf.N <= 0 {
		for i := range cf.LS {
			s += x[i] * x[i]
		}
		return s
	}
	inv := 1 / cf.N
	for i, v := range cf.LS {
		d := float64(v*inv) - x[i]
		s += d * d
	}
	return s
}
