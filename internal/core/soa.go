package core

import (
	"math"

	"bayestree/internal/kernels"
	"bayestree/internal/stats"
)

// This file implements the structure-of-arrays mirror behind vectorized
// descent. The pointer-based tree scores one child entry at a time
// through scattered heap objects and interface calls; the mirror
// flattens every node's frozen per-class Gaussians (means, inverse
// variances, log variances, log-normalisers, log counts), MBR bounds
// and leaf kernel centres into contiguous float64 slices, so one
// refinement step scores all children of a frontier node in a single
// cache-friendly sweep (kernels.SweepFrozenLogPDFObs for inner entries,
// kernels.Sweeper for leaves). Every sweep replicates the pointer
// path's floating-point operations in the same order, so a query served
// from the mirror is digit-identical to the pointer path — the
// equivalence property tests in soa_equiv_test.go assert it bitwise.
//
// Staleness has one rule: every MultiTree mutation ends in
// (*MultiTree).invalidate, which drops the cached query constants and
// unpublishes the mirror (the atomic pointer goes nil, so later queries
// take the pointer loop) and records what went stale. A split-free
// insert only dirties the nodes on its insertion path, and RefreshSoA
// patches those node blocks in place (leaf blocks are padded to MaxLeaf
// so a leaf can grow without moving); splits, decay sweeps and epoch
// advances are structural and force a full rebuild. RefreshSoA must be
// called with exclusive access to the tree — the serving layer calls it
// under the shard write lock right after the mutation, and piggybacks
// full rebuilds on recovery replay and the decay maintenance sweep.
//
// The pointer loop in MultiQuery.consume stays for two inputs: a leaf
// kernel that does not implement kernels.Sweeper, and a tree nobody
// called RefreshSoA on. It is also the reference the equivalence tests
// compare the mirror against. The per-class Tree/Cursor/Classifier have
// no mirror: they are the paper-faithful pointer implementation.

// ---------------------------------------------------------------------
// MultiTree mirror

// soaMultiNode locates one MultiNode's blocks inside the flat arrays of
// a multiSoA. Inner nodes use entBase/entCount (entry-major arrays) and
// ecBase (class-major entry-class slots); leaves use ptBase (a point
// block of MaxLeaf capacity) and coBase (nc+1 class offsets).
type soaMultiNode struct {
	leaf     bool
	weighted bool
	entBase  int32
	entCount int32
	ecBase   int32
	ptBase   int32
	coBase   int32
}

// multiSoA is the flat mirror of one MultiTree. Entry-class data lives
// in "slots" laid out class-major per node (slot = ecBase + c*entCount
// + e), so one class's entries form a contiguous run a single sweep can
// score; leaf points are stable-partitioned by class so each class's
// kernel centres are contiguous too.
type multiSoA struct {
	dim     int
	nc      int
	maxLeaf int
	nodes   []soaMultiNode
	index   map[*MultiNode]int32

	// Entry-class slot arrays (slot*dim+d for the vectors).
	means   []float64
	invVar  []float64
	logVar  []float64
	logNorm []float64 // per slot
	logN    []float64 // per slot; −Inf marks an absent class

	// Entry-major arrays (ent*dim+d for the bounds).
	child  []int32
	rectLo []float64
	rectHi []float64
	logEnt []float64 // per entry: ln(1 + class entropy), for EntropyPriority

	// Leaf arrays (point-slot*dim+d for the centres).
	pts      []float64
	ptLogW   []float64 // per point slot; ln of the decayed weight, 0 when unweighted
	classOff []int32   // per leaf: nc+1 absolute point-slot offsets

	fillCur []int32 // partition scratch for fillMultiLeaf (exclusive access)
}

// buildMultiSoA flattens the whole tree in BFS order (root = node 0).
func buildMultiSoA(t *MultiTree) *multiSoA {
	dim, nc := t.cfg.Dim, len(t.labels)
	s := &multiSoA{dim: dim, nc: nc, maxLeaf: t.cfg.MaxLeaf, index: make(map[*MultiNode]int32)}
	queue := []*MultiNode{t.root}
	var ents, slots, pts, cos int
	for qi := 0; qi < len(queue); qi++ {
		n := queue[qi]
		s.index[n] = int32(qi)
		if n.leaf {
			s.nodes = append(s.nodes, soaMultiNode{leaf: true, ptBase: int32(pts), coBase: int32(cos)})
			pts += s.maxLeaf
			cos += nc + 1
			continue
		}
		k := len(n.entries)
		s.nodes = append(s.nodes, soaMultiNode{entBase: int32(ents), entCount: int32(k), ecBase: int32(slots)})
		ents += k
		slots += k * nc
		for i := range n.entries {
			queue = append(queue, n.entries[i].Child)
		}
	}
	s.means = make([]float64, slots*dim)
	s.invVar = make([]float64, slots*dim)
	s.logVar = make([]float64, slots*dim)
	s.logNorm = make([]float64, slots)
	s.logN = make([]float64, slots)
	s.child = make([]int32, ents)
	s.rectLo = make([]float64, ents*dim)
	s.rectHi = make([]float64, ents*dim)
	s.logEnt = make([]float64, ents)
	s.pts = make([]float64, pts*dim)
	s.ptLogW = make([]float64, pts)
	s.classOff = make([]int32, cos)
	s.fillCur = make([]int32, nc)
	for qi, n := range queue {
		s.fillMultiNode(t, n, int32(qi))
	}
	return s
}

// fillMultiNode (re)fills one node's blocks from the live tree node.
func (s *multiSoA) fillMultiNode(t *MultiTree, n *MultiNode, idx int32) {
	nd := &s.nodes[idx]
	if n.leaf {
		s.fillMultiLeaf(t, n, nd)
		return
	}
	dim, nc := s.dim, s.nc
	k := int(nd.entCount)
	for e := range n.entries {
		en := &n.entries[e]
		ent := int(nd.entBase) + e
		s.child[ent] = s.index[en.Child]
		copy(s.rectLo[ent*dim:ent*dim+dim], en.Rect.Lo)
		copy(s.rectHi[ent*dim:ent*dim+dim], en.Rect.Hi)
		s.logEnt[ent] = math.Log1p(multiEntryEntropy(en))
		for c := 0; c < nc; c++ {
			slot := int(nd.ecBase) + c*k + e
			if en.CFs[c].N <= 0 {
				s.logN[slot] = math.Inf(-1)
				continue
			}
			f := t.classFrozen(en, c)
			copy(s.means[slot*dim:slot*dim+dim], f.Mean)
			copy(s.invVar[slot*dim:slot*dim+dim], f.InvVar)
			copy(s.logVar[slot*dim:slot*dim+dim], f.LogVar)
			s.logNorm[slot] = f.LogNorm()
			s.logN[slot] = f.LogN
		}
	}
}

// fillMultiLeaf stable-partitions a leaf's observations by class into
// its padded point block, so each class's kernel centres are one
// contiguous sweep range. Within a class the tree's point order is
// preserved — the accumulator folds per-class terms in the pointer
// path's order.
func (s *multiSoA) fillMultiLeaf(t *MultiTree, n *MultiNode, nd *soaMultiNode) {
	dim, nc := s.dim, s.nc
	nd.weighted = n.weights != nil
	co := int(nd.coBase)
	for c := 0; c <= nc; c++ {
		s.classOff[co+c] = 0
	}
	for _, p := range n.points {
		s.classOff[co+t.index[p.Label]+1]++
	}
	s.classOff[co] = nd.ptBase
	for c := 0; c < nc; c++ {
		s.classOff[co+c+1] += s.classOff[co+c]
	}
	curs := s.fillCur
	for c := 0; c < nc; c++ {
		curs[c] = s.classOff[co+c]
	}
	for i, p := range n.points {
		c := t.index[p.Label]
		slot := int(curs[c])
		curs[c]++
		copy(s.pts[slot*dim:slot*dim+dim], p.X)
		if nd.weighted {
			s.ptLogW[slot] = math.Log(n.weights[i])
		} else {
			s.ptLogW[slot] = 0
		}
	}
}

// patchMultiNode refills one dirtied node's blocks in place, reporting
// false when the node outgrew its blocks (or is unknown) and a full
// rebuild is needed instead.
func (s *multiSoA) patchMultiNode(t *MultiTree, n *MultiNode) bool {
	idx, ok := s.index[n]
	if !ok {
		return false
	}
	nd := &s.nodes[idx]
	if n.leaf != nd.leaf {
		return false
	}
	if n.leaf {
		if len(n.points) > s.maxLeaf {
			return false
		}
		s.fillMultiLeaf(t, n, nd)
		return true
	}
	if len(n.entries) != int(nd.entCount) {
		return false
	}
	for e := range n.entries {
		if _, ok := s.index[n.entries[e].Child]; !ok {
			return false
		}
	}
	s.fillMultiNode(t, n, idx)
	return true
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
// loaded at start. Split-free inserts since the last refresh are
// patched into the retained mirror in place; structural changes
// (splits, decay sweeps, epoch advances) rebuild it whole.
func (t *MultiTree) RefreshSoA() {
	t.soaTrack = true
	if t.size == 0 {
		t.soaRetained = nil
		t.soaStructural = false
		clear(t.soaDirty)
		t.soa.Store(nil)
		return
	}
	cur := t.soaRetained
	if cur != nil && !t.soaStructural {
		if len(t.soaDirty) == 0 {
			t.soa.Store(cur)
			return
		}
		ok := true
		for n := range t.soaDirty {
			if !cur.patchMultiNode(t, n) {
				ok = false
				break
			}
		}
		if ok {
			clear(t.soaDirty)
			t.soaPatches++
			t.soa.Store(cur)
			return
		}
	}
	ns := buildMultiSoA(t)
	t.soaRetained = ns
	t.soaStructural = false
	clear(t.soaDirty)
	t.soaRebuilds++
	t.soa.Store(ns)
}

// SoACounters reports the mirror's lifetime maintenance counters: full
// rebuilds, in-place patches and invalidation events (mutations that
// unpublished the mirror). All zero until RefreshSoA first enables
// tracking.
func (t *MultiTree) SoACounters() (rebuilds, patches, invalidations int64) {
	return t.soaRebuilds, t.soaPatches, t.soaInvalid
}

// invalidate is the tree's single invalidation point: every mutation
// calls it (mutation already requires exclusive access, so no version
// stamp is needed). It drops the cached query constants and, once
// RefreshSoA has turned tracking on, unpublishes the mirror and records
// what went stale: the nodes on a split-free insert's path are marked
// for in-place patching; a split, or a nil path (decay and epoch
// changes), forces a full rebuild on the next RefreshSoA.
func (t *MultiTree) invalidate(path []*MultiNode, split bool) {
	t.queryState.Store(nil)
	if !t.soaTrack {
		return
	}
	t.soa.Store(nil)
	t.soaInvalid++
	if split || path == nil {
		t.soaStructural = true
		return
	}
	if t.soaStructural {
		return
	}
	if t.soaDirty == nil {
		t.soaDirty = make(map[*MultiNode]struct{})
	}
	for _, n := range path {
		t.soaDirty[n] = struct{}{}
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
	k := int(nd.entCount)
	out := q.ensureOut(nc * k)
	for c := 0; c < nc; c++ {
		if math.IsInf(q.logNc[c], 1) {
			continue
		}
		base := int(nd.ecBase) + c*k
		kernels.SweepFrozenLogPDFObs(q.x, s.means[base*dim:], s.invVar[base*dim:], s.logVar[base*dim:],
			s.logNorm[base:], k, dim, q.obs, out[c*k:(c+1)*k])
	}
	for e := 0; e < k; e++ {
		ent := int(nd.entBase) + e
		off := len(q.terms)
		for c := 0; c < nc; c++ {
			slot := int(nd.ecBase) + c*k + e
			if math.IsInf(q.logNc[c], 1) || math.IsInf(s.logN[slot], -1) {
				q.terms = append(q.terms, math.Inf(-1))
				continue
			}
			term := s.logN[slot] - q.logNc[c] + out[c*k+e]
			q.terms = append(q.terms, term)
			q.addTerm(c, term)
		}
		el := mElem{termOff: int32(off), node: s.child[ent], seq: q.seq}
		q.seq++
		el.prio = q.prioSoA(ent, q.terms[off:off+nc])
		switch q.opts.Strategy {
		case DescentGlobal:
			q.heap.push(el)
		default:
			q.fifo = append(q.fifo, el)
		}
	}
}

// prioSoA is prioFor over the mirror's flat bounds and precomputed
// entropy term.
func (q *MultiQuery) prioSoA(ent int, terms []float64) float64 {
	s := q.soa
	if q.opts.Priority == PriorityGeometric {
		d := s.dim
		return -minDist2Flat(s.rectLo[ent*d:ent*d+d], s.rectHi[ent*d:ent*d+d], q.x, q.obs)
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
		prio += s.logEnt[ent]
	}
	return prio
}

// refineSoALeaf scores a leaf's kernel centres one contiguous class
// range at a time through the frozen kernel's sweep.
func (q *MultiQuery) refineSoALeaf(nd *soaMultiNode) {
	s := q.soa
	dim, nc := s.dim, s.nc
	co := int(nd.coBase)
	for c := 0; c < nc; c++ {
		start, end := int(s.classOff[co+c]), int(s.classOff[co+c+1])
		if start == end || math.IsInf(q.logNc[c], 1) {
			continue
		}
		cnt := end - start
		out := q.ensureOut(cnt)
		q.sweep[c].SweepLogDensityObs(q.x, s.pts[start*dim:end*dim], cnt, dim, q.obs, out)
		if nd.weighted {
			for j := 0; j < cnt; j++ {
				q.addTerm(c, -q.logNc[c]+out[j]+s.ptLogW[start+j])
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
