package core

import (
	"math"
	"slices"
	"unsafe"

	"bayestree/internal/kernels"
	"bayestree/internal/stats"
)

// This file implements the structure-of-arrays mirror, the frozen
// form of a MultiTree that every query descends through. The mirror
// holds only what it derives from the tree; what the tree stores it
// reads from the tree. The tree's entries hold rectangle, cluster
// features and pointer, its leaves the kernel centres; the mirror keeps,
// for every inner node, one contiguous block of float64s holding the
// entries' frozen per-class Gaussians (means, inverse variances,
// log-normalisers, log counts: 2·dim + 2 floats a row, no log variances
// — a marginal takes them from the inverse variances), so one
// refinement step scores all entries of a frontier node in a single
// cache-friendly sweep (kernels.SweepFrozenLogPDFObs), and for every
// leaf each point's class index and, in a decayed leaf, its log weight.
// A leaf's points and an entry's rectangle (the geometric priority's)
// are read through the mirror node's pointer to its tree node. The
// sweep performs the floating-point operations of the per-entry
// evaluation (stats.FrozenGaussian.LogPDFObs) in the same order, and a
// leaf is scored point by point (FrozenGaussianKernel.LogDensityObs, or two at
// a time by kernels.LogDensityPair, bitwise the same); the pointer-loop
// oracle in soa_equiv_test.go, which derives its Gaussians from the
// cluster features on its own, asserts the scores equal bitwise.
//
// A MultiQuery step does only the arithmetic its answer and its pop
// order need: one sweep per inner node over its class-major rows, one
// per (entry, class) pair with mass;
// an element leaves the accumulators by the values they summed for it
// (the bits remove would recompute) unless a shift has moved since; and
// a probabilistic priority is lazy — keyed by an upper bound and made
// exact only at the heap's top, when its lower bound cannot already
// prove it the maximum. Keys never fall below exact priorities and ties
// still break on push order, so every pop is the eager heap's (settle
// has the proof) and every score bitwise the oracle's.
//
// The mirror's lifetime has one rule, and every MultiTree mutation
// applies it by ending in (*MultiTree).invalidate:
//
//   - no mirror: a mutation does no mirror work;
//   - a mirror: an insert repairs it in place along its own path before
//     it returns — per level the inserted class's row (addRow makes one
//     for a class new to the entry), at the leaf the new point's class
//     index; after a split the replaced nodes' blocks are released and
//     the new siblings mirrored (a new root takes over
//     index 0), each entry a split left alone copied out of the old
//     block it sat in and only the entries over new halves frozen, and
//     each surviving level's entry over the path frozen anew, every
//     class — work proportional to the path, not the tree;
//   - a structural mutation (a decay step or a decay-state change)
//     touches every node and drops the mirror;
//   - a query that finds none builds it and publishes it with a
//     compare-and-swap (concurrent first queries build identical mirrors
//     and one wins, as with queryConsts).
//
// So a published mirror is always current, nothing is recorded for
// later, and mutation needs what it always needed: exclusive access to
// the tree. A caller that holds it anyway and wants the build off the
// first reader (recovery, the decay maintenance sweep) calls RefreshSoA.
// Every tree has one, the per-class forest's one-class trees included:
// the MultiTree is the only tree type.

// ---------------------------------------------------------------------
// MultiTree mirror

// soaNode mirrors one MultiNode, which it points at. The node owns its
// storage: an inner node's float64 slices are carved from one block
// allocated for this node, so a sweep runs over contiguous memory within
// the node and nothing is shared between nodes — a node's blocks can be
// replaced or dropped without moving any other's.
//
// An inner node of k entries keeps a frozen Gaussian per (entry, class)
// pair with mass, one row each, laid out class-major in the order of
// its slot table (slot[c*k+e] is the row, −1 for an absent class), so
// one class's entries form a contiguous run a single sweep can score.
// Its block is sized to its allocation class (innerBlock). A leaf keeps
// one class index per point, and a log weight per point when decayed,
// parallel to the tree leaf's points.
type soaNode struct {
	node *MultiNode // the tree node: a leaf's points, an entry's rectangle
	leaf bool

	// Inner node, per row (row*dim+d for the vectors).
	means   []float64
	invVar  []float64
	logNorm []float64
	logN    []float64
	slot    []int32 // per (class, entry): the row, or −1
	child   []int32 // per entry: the mirror index of its child

	// Leaf, per point in the tree's order.
	cls  []int32   // the point's class index
	logW []float64 // ln of its decayed weight; nil for an unweighted leaf
}

// multiSoA is the mirror of one MultiTree: a table of node mirrors
// addressed by index (the root is always node 0), the tree node each
// live one belongs to, and the indices released nodes left free.
type multiSoA struct {
	dim   int
	nc    int
	nodes []soaNode
	index map[*MultiNode]int32
	free  []int32

	donors []soaNode // repair scratch: the split path's old mirror nodes
	frozen int       // class rows fillSlots has frozen
}

// buildMultiSoA mirrors the whole tree.
func buildMultiSoA(t *MultiTree) *multiSoA {
	s := &multiSoA{
		dim:   t.cfg.Dim,
		nc:    len(t.labels),
		index: make(map[*MultiNode]int32),
	}
	s.place(t, t.root, nil)
	return s
}

// bytes is the size of the mirror's blocks, spare rows included, and
// tables.
func (s *multiSoA) bytes() int64 {
	floats, ints := 0, cap(s.free)
	for i := range s.nodes {
		nd := &s.nodes[i]
		floats += 2*cap(nd.means) + 2*cap(nd.logN) + cap(nd.logW)
		ints += len(nd.child) + len(nd.slot) + cap(nd.cls)
	}
	const indexEntry = 16 // a map slot: key pointer, int32 value, bucket overhead
	return int64(8*floats+4*ints) + int64(cap(s.nodes))*int64(unsafe.Sizeof(soaNode{})) + int64(len(s.index))*indexEntry
}

// place returns n's mirror index, mirroring n — and through it every
// descendant that has no mirror node yet — when it has none (see fill
// for donors).
func (s *multiSoA) place(t *MultiTree, n *MultiNode, donors []soaNode) int32 {
	if idx, ok := s.index[n]; ok {
		return idx
	}
	var idx int32
	if k := len(s.free); k > 0 {
		idx, s.free = s.free[k-1], s.free[:k-1]
	} else {
		idx = int32(len(s.nodes))
		s.nodes = append(s.nodes, soaNode{})
	}
	s.index[n] = idx
	s.fill(t, n, idx, donors)
	return idx
}

// release drops a dead tree node's mirror node and frees its index.
// Index 0 is never handed out again: it waits for the new root.
func (s *multiSoA) release(n *MultiNode) {
	idx, ok := s.index[n]
	if !ok {
		return
	}
	delete(s.index, n)
	s.nodes[idx] = soaNode{}
	if idx != 0 {
		s.free = append(s.free, idx)
	}
}

// repair brings the mirror up to date with the insert that just ran
// along path, of a point of the given class, whose splits replaced the
// lowest `replaced` nodes of the path (fixOverflow's report). Above the
// lowest survivor one entry per level changed, the one over the path:
// its class (with pooled variance, or after a split, every class). The
// lowest survivor is refilled, mirroring a split's halves; a leaf that
// split-free took the point appends its class.
func (s *multiSoA) repair(t *MultiTree, path []*MultiNode, replaced, class int) {
	alive := len(path) - replaced
	lo, hi := class, class+1
	if replaced > 0 || t.mopts.PooledVariance {
		lo, hi = 0, s.nc
	}
	for i, n := range path[:max(alive-1, 0)] {
		nd := &s.nodes[s.index[n]]
		e := entryOver(n, path[i+1])
		s.fillSlots(t, nd, e, &n.entries[e], lo, hi)
	}
	if replaced == 0 {
		s.fill(t, path[alive-1], s.index[path[alive-1]], nil)
		return
	}
	// donors[j+1] is path[j]'s old mirror node, donor to the node filled
	// at its depth; a new root has none and takes index 0 once released.
	donors := append(s.donors[:0], soaNode{})
	for _, n := range path {
		donors = append(donors, s.nodes[s.index[n]])
	}
	for _, n := range path[alive:] {
		s.release(n)
	}
	if alive == 0 {
		s.index[t.root] = 0
		s.fill(t, t.root, 0, donors)
	} else {
		s.fill(t, path[alive-1], s.index[path[alive-1]], donors[alive:])
	}
	clear(donors) // the old blocks are garbage now
	s.donors = donors
}

// fill (re)fills mirror node idx from the live tree node: an inner node
// in a new block, a leaf by appending what it gained (fillLeaf). It
// works on a copy of the table row because placing children can grow
// the table. An entry a split moved but did not change — its child has
// a mirror node — copies its rows out of donors[0], the old mirror node
// it sat in; donors[1:] serve the children placed from here.
func (s *multiSoA) fill(t *MultiTree, n *MultiNode, idx int32, donors []soaNode) {
	nd := s.nodes[idx]
	if n.leaf {
		s.fillLeaf(t, n, &nd)
	} else {
		s.fillInner(t, n, &nd, donors)
	}
	s.nodes[idx] = nd
}

func (s *multiSoA) fillInner(t *MultiTree, n *MultiNode, nd *soaNode, donors []soaNode) {
	nc, k := s.nc, len(n.entries)
	ints := make([]int32, k+nc*k)
	*nd = soaNode{node: n, child: ints[:k:k], slot: ints[k:]}
	rows := int32(0)
	for c := 0; c < nc; c++ {
		for e := range n.entries {
			nd.slot[c*k+e] = -1
			if n.entries[e].CFs[c].N > 0 {
				nd.slot[c*k+e] = rows
				rows++
			}
		}
	}
	s.innerBlock(nd, int(rows), int(rows))
	var donor soaNode
	if len(donors) > 0 {
		donor, donors = donors[0], donors[1:]
	}
	for e := range n.entries {
		en := &n.entries[e]
		old, known := s.index[en.Child]
		nd.child[e] = s.place(t, en.Child, donors)
		if d := slices.Index(donor.child, old); known && d >= 0 {
			s.copySlots(nd, e, &donor, d)
		} else {
			s.fillSlots(t, nd, e, en, 0, nc)
		}
	}
}

// innerBlock gives inner node nd a block for at least minRows rows,
// keeping its first rows rows. The block is as large as its allocation
// class: the rows that leaves are spare.
func (s *multiSoA) innerBlock(nd *soaNode, rows, minRows int) {
	w := 2*s.dim + 2
	block := slices.Grow([]float64(nil), minRows*w)
	block = block[:cap(block)]
	spare := len(block) / w
	for _, a := range nd.rowArrays(s.dim) {
		was := *a.v
		*a.v, block = block[:rows*a.w:spare*a.w], block[spare*a.w:]
		copy(*a.v, was)
	}
}

// addRow gives class c of entry e, which had no row, the row its slot
// orders it to, moving every later row up by one — in place when the
// block has a spare row, else into a block with a quarter more rows, as
// append grows a slice — and returns it.
func (s *multiSoA) addRow(nd *soaNode, c, e int) int32 {
	at := c*len(nd.child) + e
	row := int32(0)
	for i, r := range nd.slot {
		switch {
		case r < 0:
		case i < at:
			row = r + 1
		default:
			nd.slot[i] = r + 1
		}
	}
	nd.slot[at] = row
	rows, r := len(nd.logN), int(row)
	if rows == cap(nd.logN) {
		s.innerBlock(nd, rows, rows+1+rows/4)
	}
	for _, a := range nd.rowArrays(s.dim) {
		*a.v = (*a.v)[:(rows+1)*a.w]
		copy((*a.v)[(r+1)*a.w:], (*a.v)[r*a.w:rows*a.w])
	}
	return row
}

// rowArray is one of an inner node's per-row arrays, w float64s a row.
type rowArray struct {
	v *[]float64
	w int
}

// rowArrays lists an inner node's per-row arrays in block order.
func (nd *soaNode) rowArrays(dim int) [4]rowArray {
	return [4]rowArray{{&nd.means, dim}, {&nd.invVar, dim}, {&nd.logNorm, 1}, {&nd.logN, 1}}
}

// copySlots copies the rows of entry d of donor into entry e of nd: what
// fillSlots would write, frozen from the same cluster features, so the
// two entries hold the same classes.
func (s *multiSoA) copySlots(nd *soaNode, e int, donor *soaNode, d int) {
	dim, k, kd := s.dim, len(nd.child), len(donor.child)
	for c := 0; c < s.nc; c++ {
		from := int(donor.slot[c*kd+d])
		if from < 0 {
			continue
		}
		to := int(nd.slot[c*k+e])
		nd.logN[to], nd.logNorm[to] = donor.logN[from], donor.logNorm[from]
		copy(nd.means[to*dim:to*dim+dim], donor.means[from*dim:])
		copy(nd.invVar[to*dim:to*dim+dim], donor.invVar[from*dim:])
	}
}

// fillSlots writes the rows of classes [lo, hi) of entry e: each one's
// Gaussian, frozen from its cluster feature straight into the row's own
// vectors (stats.Freeze's arithmetic, through a view of them); a class
// the entry holds for the first time gets its row first. Under variance
// pooling the variance comes from the entry's Total, frozen once and
// copied to the other classes' rows.
func (s *multiSoA) fillSlots(t *MultiTree, nd *soaNode, e int, en *MultiEntry, lo, hi int) {
	dim, k := s.dim, len(nd.child)
	pooled := int32(-1) // the row already holding the entry's pooled variance
	for c := lo; c < hi; c++ {
		cf := &en.CFs[c]
		if cf.N <= 0 {
			continue
		}
		s.frozen++
		row := nd.slot[c*k+e]
		if row < 0 {
			row = s.addRow(nd, c, e)
			if pooled >= row {
				pooled++
			}
		}
		at := int(row) * dim
		f := stats.FrozenGaussian{Mean: nd.means[at : at+dim], InvVar: nd.invVar[at : at+dim]}
		f.SetMean(cf)
		nd.logN[row] = f.LogN
		switch {
		case !t.mopts.PooledVariance:
			f.SetVariance(cf)
		case pooled < 0:
			f.SetVariance(&en.Total)
			pooled = row
		default:
			p := int(pooled) * dim
			copy(f.InvVar, nd.invVar[p:p+dim])
			nd.logNorm[row] = nd.logNorm[pooled]
			continue
		}
		nd.logNorm[row] = f.LogNorm()
	}
}

// fillLeaf mirrors leaf n in nd: each point's class index and, for a
// weighted leaf, its log weight, in the tree's order. While a mirror
// lives, only an insert changes a leaf, by appending one point of weight
// 1 (a decay step, which reorders, prunes and reweighs, drops the
// mirror first), so a leaf nd already mirrors appends what it gained; a
// new mirror node is filled whole.
func (s *multiSoA) fillLeaf(t *MultiTree, n *MultiNode, nd *soaNode) {
	k := len(nd.cls)
	if nd.node != n {
		*nd = soaNode{node: n, leaf: true, cls: slices.Grow([]int32(nil), len(n.points))}
		if n.weights != nil {
			nd.logW = slices.Grow([]float64{}, len(n.points))
		}
		k = 0
	}
	for i := k; i < len(n.points); i++ {
		nd.cls = append(nd.cls, int32(t.index[n.points[i].Label]))
		if nd.logW != nil {
			nd.logW = append(nd.logW, math.Log(n.weights[i]))
		}
	}
}

// ---------------------------------------------------------------------
// MultiTree maintenance

// mirror returns the tree's mirror, building and publishing it when there
// is none. Queries run concurrently under the caller's read lock, so
// publication is a compare-and-swap: the loser of a first-query race
// drops its identical copy.
func (t *MultiTree) mirror() *multiSoA {
	if s := t.soa.Load(); s != nil {
		return s
	}
	if t.soa.CompareAndSwap(nil, buildMultiSoA(t)) {
		t.soaRebuilds.Add(1)
	}
	return t.soa.Load()
}

// RefreshSoA builds the mirror now if the tree has none — what the next
// query would otherwise do. For a caller that holds exclusive access
// anyway (recovery, the decay maintenance sweep) and wants the build off
// the first reader; nothing requires it.
func (t *MultiTree) RefreshSoA() { t.mirror() }

// SoACounters reports the mirror's lifetime maintenance counters: whole
// builds, insert repairs (patches) and invalidations (structural
// mutations that dropped a mirror).
func (t *MultiTree) SoACounters() (rebuilds, patches, invalidations int64) {
	return t.soaRebuilds.Load(), t.soaPatches, t.soaDrops
}

// invalidate is the tree's single invalidation point: every mutation
// calls it (mutation already requires exclusive access, so no version
// stamp is needed). An insert passes its path, the number of levels,
// counted from the leaf, that splits replaced, and the point's class; a
// nil path is a decay step or a decay-state change. It applies one rule to both
// places that hold derived state, the cached query constants and the
// mirror, when they exist:
//
//   - a split-free insert (replaced == 0) is a class-local delta: the
//     query constants of that class are patched in place, the mirror
//     repaired along the path;
//   - an insert that split drops the query constants and repairs the
//     mirror along the path, replaced nodes and all;
//   - a nil path drops both.
func (t *MultiTree) invalidate(path []*MultiNode, replaced, class int) {
	if st := t.queryState.Load(); st != nil {
		if path != nil && replaced == 0 {
			t.refreshClass(&st.root, t.root, class)
			t.classConsts(st, class)
		} else {
			t.queryState.Store(nil)
		}
	}
	s := t.soa.Load()
	if s == nil {
		return
	}
	if path == nil {
		t.soa.Store(nil)
		t.soaDrops++
		return
	}
	s.repair(t, path, replaced, class)
	t.soaPatches++
}

// ---------------------------------------------------------------------
// MultiQuery descent

// refineSoA expands one frontier node through the mirror: the node's
// class-major rows are scored in one flat sweep, then per-entry terms
// are folded into the accumulators entry-major/class-inner through the
// slot table — the order (and arithmetic) of scoring the node's entries
// one by one, an absent class's term −Inf. Each entry keeps, in the
// arena, its terms and the values the accumulators summed for them.
func (q *MultiQuery) refineSoA(idx int) {
	s := q.soa
	nd := &s.nodes[idx]
	if nd.leaf {
		q.refineSoALeaf(nd)
		return
	}
	nc := s.nc
	k, rows := len(nd.child), len(nd.logN)
	out := q.ensureOut(rows)
	kernels.SweepFrozenLogPDFObs(q.x, nd.means, nd.invVar, nil, nd.logNorm, rows, s.dim, q.obs, out)
	q.swept += rows
	for e := 0; e < k; e++ {
		off := q.grow()
		el := q.terms[off : off+2*nc]
		for c := 0; c < nc; c++ {
			row := nd.slot[c*k+e]
			if row < 0 || math.IsInf(q.logNc[c], 1) {
				el[c] = math.Inf(-1)
				continue
			}
			term := nd.logN[row] - q.logNc[c] + out[row]
			acc := &q.accs[c]
			shift := acc.shift
			el[c], el[nc+c] = term, acc.add(term)
			if acc.shift != shift {
				// The entries before this one hold values of the old shift;
				// this one's were all summed at the shifts now in force.
				q.fresh = off
			}
		}
		q.push(off, nd, e)
	}
}

// grow appends one zeroed frontier element to the arena and returns its
// offset.
func (q *MultiQuery) grow() int {
	off := len(q.terms)
	q.terms = append(q.terms, make([]float64, 2*len(q.accs)+1)...)
	return off
}

// push enqueues entry e of nd, its terms and values at arena offset off,
// keyed for the descent: no key for breadth- and depth-first, −MINDIST²
// for geometric, and for probabilistic the upper bound m + ceilLn[n] of
// the log-sum-exp of its n finite terms (m their largest, whose exp is 1
// in the sum and every other ≤ 1), its lower bound m kept in the arena.
// n ≤ 1 is exact.
func (q *MultiQuery) push(off int, nd *soaNode, e int) {
	nc := len(q.accs)
	var key, lo float64
	switch {
	case q.opts.Strategy != DescentGlobal:
	case q.opts.Priority == PriorityGeometric:
		key = -nd.node.entries[e].Rect.MinDist2Obs(q.x, q.obs)
		lo = key
	default:
		m, n := math.Inf(-1), 0
		for _, tm := range q.terms[off : off+nc] {
			if !math.IsInf(tm, -1) {
				n++
				m = max(m, tm)
			}
		}
		key, lo = m+q.ceilLn[n], m
	}
	q.terms[off+2*nc] = lo
	q.front.push(key, multiRef{termOff: int32(off), node: nd.child[e]})
}

// settle readies the frontier's heap for a pop: its top becomes the
// element a heap keyed by exact priorities would pop. Every key k is at
// least its element's exact priority r, and equal to it once the key
// is exact (its lower bound reached it). While the top is lazy it is
// either proven the maximum — its lower bound beats both children's keys
// strictly, and a child's key bounds every key below it — or given its
// exact priority, the same stats.LogSumExp over the same terms the eager
// key took (an absent class's −Inf adds exp(−Inf) = 0, leaving every
// bit), and sifted down. Proof that the pop order is the eager one: the
// top that pops has an exact priority p that comes before every other
// element's key k in (priority, seq) order — p > k after the shortcut,
// by the heap order after an evaluation — and k ≥ r; so p > r, or
// p = k = r and the smaller seq wins, as in the eager heap. Only the
// priorities that order needs are computed.
func (q *MultiQuery) settle() {
	h := q.front.heap
	nc := len(q.accs)
	for len(h) > 0 {
		top := &h[0]
		off := int(top.payload.termOff)
		lo := q.terms[off+2*nc]
		if lo == top.prio || ((len(h) < 2 || lo > h[1].prio) && (len(h) < 3 || lo > h[2].prio)) {
			return
		}
		exact := stats.LogSumExp(q.terms[off : off+nc])
		q.terms[off+2*nc], top.prio = exact, exact
		q.exact++
		h.fixTop()
	}
}

// refineSoALeaf folds the kernel density of each of a leaf's points,
// read from the tree in its order, into the accumulator of the point's
// class, so every class sums its terms in the tree's order. With every
// dimension observed it scores two points at a time
// (kernels.LogDensityPair), so the two quadratic forms overlap as the
// rows of a sweep do; each density keeps LogDensityObs's bits. Decayed leaves weight each kernel by its observation's faded
// mass (the scale logNc is on). A class without mass (logNc +Inf) has
// no frozen kernel and its terms are −Inf, which add leaves out.
func (q *MultiQuery) refineSoALeaf(nd *soaNode) {
	pts, cls := nd.node.points, nd.cls
	x, obs, kern, logNc, accs := q.x, q.obs, q.kern, q.logNc, q.accs
	out := q.ensureOut(len(pts))
	i := 0
	if obs == nil {
		for ; i+1 < len(pts); i += 2 {
			c0, c1 := cls[i], cls[i+1]
			if math.IsInf(logNc[c0], 1) || math.IsInf(logNc[c1], 1) {
				break
			}
			d0, d1 := kernels.LogDensityPair(kern[c0], kern[c1], x, pts[i].X, pts[i+1].X)
			out[i], out[i+1] = -logNc[c0]+d0, -logNc[c1]+d1
		}
	}
	for ; i < len(pts); i++ {
		if c := cls[i]; math.IsInf(logNc[c], 1) {
			out[i] = math.Inf(-1)
		} else {
			out[i] = -logNc[c] + kern[c].LogDensityObs(x, pts[i].X, obs)
		}
	}
	if nd.logW != nil {
		for i, w := range nd.logW {
			out[i] += w
		}
	}
	moved := false
	for i, l := range out {
		acc := &accs[cls[i]]
		shift := acc.shift
		acc.add(l)
		moved = moved || acc.shift != shift
	}
	if moved {
		q.fresh = len(q.terms)
	}
}

// ensureOut returns the query's density scratch grown to n.
func (q *MultiQuery) ensureOut(n int) []float64 {
	if cap(q.outBuf) < n {
		q.outBuf = make([]float64, n)
	}
	return q.outBuf[:n]
}
