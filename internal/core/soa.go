package core

import (
	"math"
	"unsafe"

	"bayestree/internal/kernels"
	"bayestree/internal/stats"
)

// This file implements the structure-of-arrays mirror behind vectorized
// descent. The pointer-based tree scores one child entry at a time
// through scattered heap objects and interface calls; the mirror keeps,
// for every tree node, one contiguous block of float64s holding the
// node's frozen per-class Gaussians (means, inverse variances, log
// variances, log-normalisers, log counts) and MBR bounds, or a leaf's
// kernel centres, so one refinement step scores all children of a
// frontier node in a single cache-friendly sweep
// (kernels.SweepFrozenLogPDFObs for inner entries, kernels.Sweeper for
// leaves). Every sweep replicates the pointer path's floating-point
// operations in the same order, so a query served from the mirror is
// digit-identical to the pointer path — the equivalence property tests
// in soa_equiv_test.go assert it bitwise.
//
// Staleness has one rule: every MultiTree mutation ends in
// (*MultiTree).invalidate, which unpublishes the mirror (the atomic
// pointer goes nil, so later queries take the pointer loop) and records
// what went stale, in the mirror and in the cached query constants
// alike. The rule has two cases. A split-free insert is a class-local
// delta: along its path only the inserted class of one entry per node
// changed (refreshClass rewrote it in place), so each inner node of the
// path owes the mirror that entry's slot and bounds, the leaf its block,
// and the query constants are patched for that class. A structure change
// re-summarises and drops the query constants: after a split the nodes
// it replaced are dead and the surviving path is dirty whole — RefreshSoA
// releases the dead nodes' blocks, mirrors the new siblings (a new root
// takes over index 0) and refills the dirty ancestors, work proportional
// to the path and not the tree — while decay sweeps and epoch advances
// touch every node and are whole builds, as is a pending set that
// outgrew the mirror it would repair.
// RefreshSoA must be called with exclusive access to the tree — the
// serving layer calls it under the shard write lock right after the
// mutation, and piggybacks whole builds on recovery replay and the
// decay maintenance sweep.
//
// The pointer loop in MultiQuery.consume stays for two inputs: a leaf
// kernel that does not implement kernels.Sweeper, and a tree nobody
// called RefreshSoA on. It is also the reference the equivalence tests
// compare the mirror against. The per-class Tree/Cursor/Classifier have
// no mirror: they are the paper-faithful pointer implementation.

// ---------------------------------------------------------------------
// MultiTree mirror

// soaNode mirrors one MultiNode. The node owns its storage: every
// float64 slice below is carved from one block allocated for this node,
// so a sweep runs over contiguous memory within the node and nothing is
// shared between nodes — a node's blocks can be replaced or dropped
// without moving any other's.
//
// An inner node of k entries keeps its entry-class data in slots laid
// out class-major (slot = c*k + e), so one class's entries form a
// contiguous run a single sweep can score. A leaf keeps its points
// stable-partitioned by class, so each class's kernel centres are
// contiguous too. A block is exactly as large as its node's entry or
// point count needs; fill replaces it when that count changed.
type soaNode struct {
	leaf     bool
	weighted bool

	// Inner node, per slot (slot*dim+d for the vectors).
	means   []float64
	invVar  []float64
	logVar  []float64
	logNorm []float64
	logN    []float64 // −Inf marks an absent class
	// Inner node, per entry (e*dim+d for the bounds).
	child  []int32 // mirror index of the entry's child
	rectLo []float64
	rectHi []float64
	logEnt []float64 // ln(1 + class entropy), for EntropyPriority

	// Leaf, per point slot (slot*dim+d for the centres).
	pts      []float64
	ptLogW   []float64 // ln of the decayed weight, 0 when unweighted
	classOff []int32   // nc+1 point-slot offsets: class c is [classOff[c], classOff[c+1])
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

	fillCur []int32 // partition scratch for fillLeaf (exclusive access)
}

// buildMultiSoA mirrors the whole tree.
func buildMultiSoA(t *MultiTree) *multiSoA {
	s := &multiSoA{
		dim:     t.cfg.Dim,
		nc:      len(t.labels),
		index:   make(map[*MultiNode]int32),
		fillCur: make([]int32, len(t.labels)),
	}
	s.place(t, t.root)
	return s
}

// bytes is the size of the mirror's blocks and tables.
func (s *multiSoA) bytes() int64 {
	floats, ints := 0, cap(s.free)
	for i := range s.nodes {
		nd := &s.nodes[i]
		floats += 3*len(nd.means) + 2*len(nd.logN) + 2*len(nd.rectLo) + len(nd.logEnt) + len(nd.pts) + len(nd.ptLogW)
		ints += len(nd.child) + len(nd.classOff)
	}
	const indexEntry = 16 // a map slot: key pointer, int32 value, bucket overhead
	return int64(8*floats+4*ints) + int64(cap(s.nodes))*int64(unsafe.Sizeof(soaNode{})) + int64(len(s.index))*indexEntry
}

// place returns n's mirror index, mirroring n — and through it every
// descendant that has no mirror node yet — when it has none.
func (s *multiSoA) place(t *MultiTree, n *MultiNode) int32 {
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
	s.fill(t, n, idx)
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

// soaDelta is what an insert left stale in a surviving inner node of its
// path: class `class` of the entry over `child` (a split-free insert
// changes nothing else there), or, with a nil child, the whole node — a
// leaf, a node above a split, or one where two different deltas met
// before a refresh.
type soaDelta struct {
	child *MultiNode
	class int
}

// repair brings the mirror up to date after inserts: dead nodes were
// replaced by splits, dirty ones lie on an insertion path and survived.
// Refilling a dirty node mirrors the children a split gave it; a node
// with a one-class delta gets that entry's slot and bounds rewritten.
func (s *multiSoA) repair(t *MultiTree, dirty map[*MultiNode]soaDelta, dead []*MultiNode) {
	for _, n := range dead {
		s.release(n)
	}
	if _, ok := s.index[t.root]; !ok {
		s.index[t.root] = 0
		s.fill(t, t.root, 0)
	}
	for n, delta := range dirty {
		// A dirty node without a mirror node was itself created by a
		// split since the last refresh; its parent's refill places it.
		idx, ok := s.index[n]
		if !ok {
			continue
		}
		if delta.child == nil {
			s.fill(t, n, idx)
			continue
		}
		lo, hi := delta.class, delta.class+1
		if t.mopts.PooledVariance {
			lo, hi = 0, s.nc // every class of the entry shares the variance that moved
		}
		nd := &s.nodes[idx]
		for e := range n.entries {
			if en := &n.entries[e]; en.Child == delta.child {
				s.fillBounds(nd, e, en)
				for c := lo; c < hi; c++ {
					s.fillSlot(t, nd, e, c, en)
				}
				break
			}
		}
	}
}

// carve cuts the next n values off a block.
func carve(block *[]float64, n int) []float64 {
	out := (*block)[:n:n]
	*block = (*block)[n:]
	return out
}

// fill (re)fills mirror node idx from the live tree node, reusing its
// block when the node still has as many entries or points. It works on
// a copy of the table row because placing children can grow the table.
func (s *multiSoA) fill(t *MultiTree, n *MultiNode, idx int32) {
	nd := s.nodes[idx]
	if n.leaf {
		s.fillLeaf(t, n, &nd)
	} else {
		s.fillInner(t, n, &nd)
	}
	s.nodes[idx] = nd
}

func (s *multiSoA) fillInner(t *MultiTree, n *MultiNode, nd *soaNode) {
	dim, nc := s.dim, s.nc
	k := len(n.entries)
	if nd.leaf || len(nd.child) != k {
		slots := nc * k
		block := make([]float64, slots*(3*dim+2)+k*(2*dim+1))
		*nd = soaNode{
			means:   carve(&block, slots*dim),
			invVar:  carve(&block, slots*dim),
			logVar:  carve(&block, slots*dim),
			logNorm: carve(&block, slots),
			logN:    carve(&block, slots),
			child:   make([]int32, k),
			rectLo:  carve(&block, k*dim),
			rectHi:  carve(&block, k*dim),
			logEnt:  carve(&block, k),
		}
	}
	for e := range n.entries {
		en := &n.entries[e]
		nd.child[e] = s.place(t, en.Child)
		s.fillBounds(nd, e, en)
		for c := 0; c < nc; c++ {
			s.fillSlot(t, nd, e, c, en)
		}
	}
}

// fillBounds writes entry e's per-entry values: its rectangle and the
// entropy term of its class counts.
func (s *multiSoA) fillBounds(nd *soaNode, e int, en *MultiEntry) {
	dim := s.dim
	copy(nd.rectLo[e*dim:e*dim+dim], en.Rect.Lo)
	copy(nd.rectHi[e*dim:e*dim+dim], en.Rect.Hi)
	nd.logEnt[e] = math.Log1p(multiEntryEntropy(en))
}

// fillSlot writes class c of entry e: its frozen Gaussian, or the −Inf
// log count that marks the class absent.
func (s *multiSoA) fillSlot(t *MultiTree, nd *soaNode, e, c int, en *MultiEntry) {
	dim := s.dim
	slot := c*len(nd.child) + e
	if en.CFs[c].N <= 0 {
		nd.logN[slot] = math.Inf(-1)
		return
	}
	f := t.classFrozen(en, c)
	copy(nd.means[slot*dim:slot*dim+dim], f.Mean)
	copy(nd.invVar[slot*dim:slot*dim+dim], f.InvVar)
	copy(nd.logVar[slot*dim:slot*dim+dim], f.LogVar)
	nd.logNorm[slot] = f.LogNorm()
	nd.logN[slot] = f.LogN
}

// fillLeaf stable-partitions a leaf's observations by class into its
// point block, so each class's kernel centres are one contiguous sweep
// range. Within a class the tree's point order is preserved — the
// accumulator folds per-class terms in the pointer path's order.
func (s *multiSoA) fillLeaf(t *MultiTree, n *MultiNode, nd *soaNode) {
	dim, nc := s.dim, s.nc
	if k := len(n.points); !nd.leaf || len(nd.ptLogW) != k {
		co := nd.classOff // nil unless this was a leaf already
		if co == nil {
			co = make([]int32, nc+1)
		}
		block := make([]float64, k*(dim+1))
		*nd = soaNode{
			leaf:     true,
			pts:      carve(&block, k*dim),
			ptLogW:   carve(&block, k),
			classOff: co,
		}
	}
	nd.weighted = n.weights != nil
	co := nd.classOff
	clear(co)
	for _, p := range n.points {
		co[t.index[p.Label]+1]++
	}
	for c := 0; c < nc; c++ {
		co[c+1] += co[c]
	}
	curs := s.fillCur
	copy(curs, co[:nc])
	for i, p := range n.points {
		c := t.index[p.Label]
		slot := int(curs[c])
		curs[c]++
		copy(nd.pts[slot*dim:slot*dim+dim], p.X)
		if nd.weighted {
			nd.ptLogW[slot] = math.Log(n.weights[i])
		} else {
			nd.ptLogW[slot] = 0
		}
	}
}

// multiEntryEntropy returns the class-label entropy (nats) of an
// entry's per-class counts — shared by the query path and the SoA
// builder so the precomputed ln(1+H) matches the on-the-fly value
// bitwise.
func multiEntryEntropy(e *MultiEntry) float64 {
	var total float64
	for c := range e.CFs {
		total += e.CFs[c].N
	}
	if total <= 0 {
		return 0
	}
	var h float64
	for c := range e.CFs {
		if e.CFs[c].N <= 0 {
			continue
		}
		p := e.CFs[c].N / total
		h -= p * math.Log(p)
	}
	return h
}

// minDist2Flat is mbr.Rect.MinDist2Obs over flat bound slices — the
// same switch per dimension, so geometric priorities match bitwise.
func minDist2Flat(lo, hi, x []float64, obs []int) float64 {
	var s float64
	if obs == nil {
		for i := range lo {
			switch {
			case x[i] < lo[i]:
				d := lo[i] - x[i]
				s += d * d
			case x[i] > hi[i]:
				d := x[i] - hi[i]
				s += d * d
			}
		}
		return s
	}
	for _, i := range obs {
		switch {
		case x[i] < lo[i]:
			d := lo[i] - x[i]
			s += d * d
		case x[i] > hi[i]:
			d := x[i] - hi[i]
			s += d * d
		}
	}
	return s
}

// ---------------------------------------------------------------------
// MultiTree maintenance

// RefreshSoA brings the structure-of-arrays mirror up to date and
// (re)publishes it, enabling the vectorized descent fast path for
// subsequent queries. The first call turns mirror tracking on. It must
// be called with exclusive access to the tree (the serving layer holds
// the shard write lock); concurrent queries keep whatever mirror they
// loaded at start. Inserts since the last refresh, splits included, are
// repaired in the retained mirror along their paths; decay sweeps and
// epoch advances build it anew.
func (t *MultiTree) RefreshSoA() {
	t.soaTrack = true
	s := t.soaRetained
	switch {
	case t.size == 0:
		s = nil
	case s == nil || t.soaStructural:
		s = buildMultiSoA(t)
		t.soaRebuilds++
	case len(t.soaDirty)+len(t.soaDead) > 0:
		s.repair(t, t.soaDirty, t.soaDead)
		t.soaPatches++
	}
	t.soaRetained = s
	t.soaStructural = false
	t.dropPending()
	t.soa.Store(s)
}

// dropPending forgets the recorded dirty and dead nodes.
func (t *MultiTree) dropPending() {
	clear(t.soaDirty)
	clear(t.soaDead)
	t.soaDead = t.soaDead[:0]
}

// SoACounters reports the mirror's lifetime maintenance counters: whole
// builds, path repairs (patches) and invalidation events (mutations
// that unpublished the mirror). All zero until RefreshSoA first enables
// tracking.
func (t *MultiTree) SoACounters() (rebuilds, patches, invalidations int64) {
	return t.soaRebuilds, t.soaPatches, t.soaInvalid
}

// invalidate is the tree's single invalidation point: every mutation
// calls it (mutation already requires exclusive access, so no version
// stamp is needed). An insert passes its path, the number of levels,
// counted from the leaf, that splits replaced, and the point's class; a
// nil path is a decay or epoch change. The rule has two cases, applied
// alike to the cached query constants and, once RefreshSoA has turned
// tracking on, to the mirror (which is unpublished either way):
//
//   - a split-free insert (replaced == 0) is a class-local delta: the
//     query constants of that class are patched in place, and each inner
//     node of the path owes the mirror one entry's slot of that class;
//     the leaf owes its block.
//   - a structure change drops the query constants. After a split the
//     replaced nodes are dead and the rest of the path is dirty whole; a
//     nil path makes the next RefreshSoA a whole build, and so does a
//     pending set that outgrew the mirror's live nodes — many inserts
//     with no refresh between them, as in a long replay.
func (t *MultiTree) invalidate(path []*MultiNode, replaced, class int) {
	local := path != nil && replaced == 0
	if st := t.queryState.Load(); st != nil {
		if local {
			t.refreshClass(&st.root, t.root, class)
			t.classConsts(st, class)
		} else {
			t.queryState.Store(nil)
		}
	}
	if !t.soaTrack {
		return
	}
	t.soa.Store(nil)
	t.soaInvalid++
	if t.soaStructural || t.soaRetained == nil {
		return
	}
	if path == nil {
		t.soaStructural = true
		t.dropPending()
		return
	}
	if t.soaDirty == nil {
		t.soaDirty = make(map[*MultiNode]soaDelta)
	}
	alive := len(path) - replaced
	for i, n := range path[:alive] {
		var delta soaDelta
		if local && i+1 < len(path) {
			delta = soaDelta{child: path[i+1], class: class}
		}
		if old, ok := t.soaDirty[n]; ok && old != delta {
			delta = soaDelta{}
		}
		t.soaDirty[n] = delta
	}
	for _, n := range path[alive:] {
		delete(t.soaDirty, n)
		t.soaDead = append(t.soaDead, n)
	}
	if len(t.soaDirty)+len(t.soaDead) > len(t.soaRetained.index) {
		t.soaStructural = true
		t.dropPending()
	}
}

// ---------------------------------------------------------------------
// MultiQuery fast path

// refineSoA expands one frontier node through the mirror: every class's
// entry block is scored in one flat sweep, then per-entry terms are
// folded into the accumulators entry-major/class-inner — the exact
// order (and arithmetic) of the pointer loop's pushEntry calls.
func (q *MultiQuery) refineSoA(idx int) {
	s := q.soa
	nd := &s.nodes[idx]
	if nd.leaf {
		q.refineSoALeaf(nd)
		return
	}
	dim, nc := s.dim, s.nc
	k := len(nd.child)
	out := q.ensureOut(nc * k)
	for c := 0; c < nc; c++ {
		if math.IsInf(q.logNc[c], 1) {
			continue
		}
		base := c * k
		kernels.SweepFrozenLogPDFObs(q.x, nd.means[base*dim:], nd.invVar[base*dim:], nd.logVar[base*dim:],
			nd.logNorm[base:], k, dim, q.obs, out[c*k:(c+1)*k])
	}
	for e := 0; e < k; e++ {
		off := len(q.terms)
		for c := 0; c < nc; c++ {
			slot := c*k + e
			if math.IsInf(q.logNc[c], 1) || math.IsInf(nd.logN[slot], -1) {
				q.terms = append(q.terms, math.Inf(-1))
				continue
			}
			term := nd.logN[slot] - q.logNc[c] + out[slot]
			q.terms = append(q.terms, term)
			q.addTerm(c, term)
		}
		el := mElem{termOff: int32(off), node: nd.child[e], seq: q.seq}
		q.seq++
		el.prio = q.prioSoA(nd, e, q.terms[off:off+nc])
		switch q.opts.Strategy {
		case DescentGlobal:
			q.heap.push(el)
		default:
			q.fifo = append(q.fifo, el)
		}
	}
}

// prioSoA is prioFor over the mirror's flat bounds and precomputed
// entropy term of entry e of node nd.
func (q *MultiQuery) prioSoA(nd *soaNode, e int, terms []float64) float64 {
	if q.opts.Priority == PriorityGeometric {
		d := q.soa.dim
		return -minDist2Flat(nd.rectLo[e*d:e*d+d], nd.rectHi[e*d:e*d+d], q.x, q.obs)
	}
	finite := q.finiteBuf[:0]
	for _, tm := range terms {
		if !math.IsInf(tm, -1) {
			finite = append(finite, tm)
		}
	}
	q.finiteBuf = finite
	prio := stats.LogSumExp(finite)
	if q.t.mopts.EntropyPriority {
		prio += nd.logEnt[e]
	}
	return prio
}

// refineSoALeaf scores a leaf's kernel centres one contiguous class
// range at a time through the frozen kernel's sweep.
func (q *MultiQuery) refineSoALeaf(nd *soaNode) {
	s := q.soa
	dim, nc := s.dim, s.nc
	for c := 0; c < nc; c++ {
		start, end := int(nd.classOff[c]), int(nd.classOff[c+1])
		if start == end || math.IsInf(q.logNc[c], 1) {
			continue
		}
		cnt := end - start
		out := q.ensureOut(cnt)
		q.sweep[c].SweepLogDensityObs(q.x, nd.pts[start*dim:end*dim], cnt, dim, q.obs, out)
		if nd.weighted {
			for j := 0; j < cnt; j++ {
				q.addTerm(c, -q.logNc[c]+out[j]+nd.ptLogW[start+j])
			}
		} else {
			for j := 0; j < cnt; j++ {
				q.addTerm(c, -q.logNc[c]+out[j])
			}
		}
	}
}

// ensureOut returns the query's sweep output scratch grown to n.
func (q *MultiQuery) ensureOut(n int) []float64 {
	if cap(q.outBuf) < n {
		q.outBuf = make([]float64, n)
	}
	return q.outBuf[:n]
}
