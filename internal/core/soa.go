package core

import (
	"math"
	"unsafe"

	"bayestree/internal/kernels"
	"bayestree/internal/stats"
)

// This file implements the structure-of-arrays mirror, the one frozen
// and the one read representation of a MultiTree. The tree's entries
// hold only what is stored — rectangle, cluster features, pointer; the
// mirror keeps, for every tree node, one contiguous block of float64s
// holding what is derived from them — the node's frozen per-class
// Gaussians (means, inverse variances, log variances, log-normalisers,
// log counts) and MBR bounds, or a leaf's kernel centres — so one
// refinement step scores all children of a frontier node in a single
// cache-friendly sweep (kernels.SweepFrozenLogPDFObs for inner entries,
// FrozenKernel.SweepLogDensityObs for leaves). Every sweep performs the
// floating-point operations of the per-entry evaluation
// (stats.FrozenGaussian.LogPDFObs, FrozenKernel.LogDensityObs) in the
// same order; the pointer-loop oracle in soa_equiv_test.go, which
// derives its Gaussians from the cluster features on its own, asserts
// the scores equal bitwise.
//
// The mirror's lifetime has one rule, and every MultiTree mutation
// applies it by ending in (*MultiTree).invalidate:
//
//   - no mirror: a mutation does no mirror work;
//   - a mirror: an insert repairs it in place along its own path before
//     it returns — per level the inserted class's slot and the entry's
//     bounds, the leaf's block, and after a split the replaced nodes'
//     blocks released, the new siblings mirrored (a new root takes over
//     index 0) and the surviving path refilled — work proportional to the
//     path, not the tree;
//   - a structural mutation (decay sweep, epoch or decay-state change)
//     touches every node and drops the mirror;
//   - a query that finds none builds it and publishes it with a
//     compare-and-swap (concurrent first queries build identical mirrors
//     and one wins, as with queryConsts).
//
// So a published mirror is always current, nothing is recorded for
// later, and mutation needs what it always needed: exclusive access to
// the tree. A caller that holds it anyway and wants the build off the
// first reader (recovery, the decay maintenance sweep) calls RefreshSoA.
// The per-class Tree/Cursor/Classifier have no mirror: they are the
// paper-faithful pointer implementation.

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

// repair brings the mirror up to date with the insert that just ran
// along path, of a point of the given class, whose splits replaced the
// lowest `replaced` nodes of the path (fixOverflow's report).
func (s *multiSoA) repair(t *MultiTree, path []*MultiNode, replaced, class int) {
	alive := len(path) - replaced
	if replaced > 0 {
		// The replaced nodes are dead; refilling a survivor mirrors the
		// children a split gave it. A split root leaves no survivor: the
		// new root takes index 0 and mirrors both halves from there.
		for _, n := range path[alive:] {
			s.release(n)
		}
		if alive == 0 {
			s.index[t.root] = 0
			s.fill(t, t.root, 0)
		}
		for _, n := range path[:alive] {
			s.fill(t, n, s.index[n])
		}
		return
	}
	// Split-free: per inner level one entry's rectangle and the inserted
	// class's sums moved — with them, under variance pooling, the
	// variance all its classes share; the leaf gained a point.
	lo, hi := class, class+1
	if t.mopts.PooledVariance {
		lo, hi = 0, s.nc
	}
	for i, n := range path[:alive-1] {
		nd := &s.nodes[s.index[n]]
		e := entryOver(n, path[i+1])
		s.fillBounds(nd, e, &n.entries[e])
		s.fillSlots(t, nd, e, &n.entries[e], lo, hi)
	}
	s.fill(t, path[alive-1], s.index[path[alive-1]])
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
		s.fillSlots(t, nd, e, en, 0, nc)
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

// fillSlots writes classes [lo, hi) of entry e: each one's Gaussian,
// frozen from its cluster feature straight into the slot's own vectors
// (stats.Freeze's arithmetic, through a view of them), or the −Inf log
// count that marks the class absent. Under variance pooling the variance
// comes from the entry's Total, frozen once and copied to the other
// classes' slots.
func (s *multiSoA) fillSlots(t *MultiTree, nd *soaNode, e int, en *MultiEntry, lo, hi int) {
	dim, k := s.dim, len(nd.child)
	pooled := -1 // the slot already holding the entry's pooled variance
	for c := lo; c < hi; c++ {
		slot := c*k + e
		cf := &en.CFs[c]
		if cf.N <= 0 {
			nd.logN[slot] = math.Inf(-1)
			continue
		}
		at := slot * dim
		f := stats.FrozenGaussian{Mean: nd.means[at : at+dim], InvVar: nd.invVar[at : at+dim], LogVar: nd.logVar[at : at+dim]}
		f.SetMean(cf)
		nd.logN[slot] = f.LogN
		switch {
		case !t.mopts.PooledVariance:
			f.SetVariance(cf)
		case pooled < 0:
			f.SetVariance(&en.Total)
			pooled = slot
		default:
			copy(f.InvVar, nd.invVar[pooled*dim:pooled*dim+dim])
			copy(f.LogVar, nd.logVar[pooled*dim:pooled*dim+dim])
			nd.logNorm[slot] = nd.logNorm[pooled]
			continue
		}
		nd.logNorm[slot] = f.LogNorm()
	}
}

// fillLeaf stable-partitions a leaf's observations by class into its
// point block, so each class's kernel centres are one contiguous sweep
// range. Within a class the tree's point order is preserved — the order
// a walk of the leaf's points folds each class's terms in.
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
// entry's per-class counts.
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
// nil path is a decay or epoch change. It applies one rule to both
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

// refineSoA expands one frontier node through the mirror: every class's
// entry block is scored in one flat sweep, then per-entry terms are
// folded into the accumulators entry-major/class-inner — the order (and
// arithmetic) of scoring the node's entries one by one.
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
			q.accs[c].add(term)
		}
		q.front.push(q.prioSoA(nd, e, q.terms[off:off+nc]), multiRef{termOff: int32(off), node: nd.child[e]})
	}
}

// prioSoA computes the descent priority of entry e of node nd: geometric
// MINDIST, or the pooled weighted density, optionally weighted by class
// entropy.
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
// range at a time through the frozen kernel's sweep. Decayed leaves
// weight each kernel by its observation's faded mass (same
// reference-epoch scale as logNc).
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
		q.kern[c].SweepLogDensityObs(q.x, nd.pts[start*dim:end*dim], cnt, dim, q.obs, out)
		// Folded in a local and stored once: the accumulators of queries
		// running on other cores can share a cache line with this one's.
		acc := q.accs[c]
		if nd.weighted {
			for j := 0; j < cnt; j++ {
				acc.add(-q.logNc[c] + out[j] + nd.ptLogW[start+j])
			}
		} else {
			for j := 0; j < cnt; j++ {
				acc.add(-q.logNc[c] + out[j])
			}
		}
		q.accs[c] = acc
	}
}

// ensureOut returns the query's sweep output scratch grown to n.
func (q *MultiQuery) ensureOut(n int) []float64 {
	if cap(q.outBuf) < n {
		q.outBuf = make([]float64, n)
	}
	return q.outBuf[:n]
}
