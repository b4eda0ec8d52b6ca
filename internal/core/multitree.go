package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"bayestree/internal/kernels"
	"bayestree/internal/mbr"
	"bayestree/internal/stats"
)

// This file implements the structural modification of Section 4.1: instead
// of one Bayes tree per class, a single tree stores the complete training
// data and each entry keeps per-class statistical information, so one node
// read refines the models of several classes at once ("parallel refinement
// of several classes in a single descent").

// LabeledPoint is a training observation with its class label.
type LabeledPoint struct {
	X     []float64
	Label int
}

// MultiEntry is the modified entry of Section 4.1: one MBR and pointer as
// before, but a cluster feature per class (plus their pooled sum, used for
// descent decisions and variance pooling). The per-class Gaussians are
// derived state and live in the descent mirror (soa.go), not here.
type MultiEntry struct {
	Rect mbr.Rect
	// CFs is indexed by class index; a class has LS and SS vectors if
	// and only if it has mass below the entry (N > 0).
	CFs   []stats.CF
	Total stats.CF
	Child *MultiNode
}

// MultiOptions configure the multi-class tree variant.
type MultiOptions struct {
	// PooledVariance stores one variance per entry (from the pooled CF)
	// instead of per-class variances — the "variance pooling" trade-off
	// the paper poses as an open question. Class means and counts remain
	// per class.
	PooledVariance bool
}

// MultiTree is the Bayes tree: over several classes the single-tree
// multi-class variant, over one class a class tree of the per-class
// forest (Classifier).
type MultiTree struct {
	cfg    Config
	mopts  MultiOptions
	labels []int
	index  map[int]int
	root   *MultiNode
	size   int
	counts []float64
	// npoints are the per-class observation counts: Silverman's n.
	// counts are masses, which a decay sweep rescales.
	npoints []int
	// balanced is false for trees built by loaders that give up balance
	// (the paper's EMTopDown "may result in an unbalanced tree"): they
	// promise neither equal leaf depths nor the minimum fill.
	balanced bool
	// queryState caches the per-query constants (root summary, per-class
	// bandwidths and log counts); built on first query, then kept by
	// invalidate: patched for the class of a split-free insert, dropped
	// on any other mutation.
	queryState atomic.Pointer[multiQueryState]
	// path is insertPointW's descent path, kept for its capacity, and
	// split the working state of every node split.
	path  []*MultiNode
	split splitter
	decayClock
	// soa is the structure-of-arrays mirror every query descends through
	// (nil = none: the next query builds and publishes it), followed by
	// its lifetime counters: whole builds, insert repairs, drops. See
	// soa.go.
	soa         atomic.Pointer[multiSoA]
	soaRebuilds atomic.Int64
	soaPatches  int64
	soaDrops    int64
	// pubLen and pubWeight are Len() and Weight() (its bits) as of the
	// end of the last mutation or constructor: see Published.
	pubLen    atomic.Int64
	pubWeight atomic.Uint64
}

// multiQueryState holds what every MultiQuery needs but no query should
// recompute: the root summary (a full tree walk), the per-class Silverman
// bandwidths and the per-class log counts.
type multiQueryState struct {
	root MultiEntry
	// frozen holds the root summary's per-class Gaussians: a mirror node
	// holds its children's entries, so the root's own entry is the one
	// no mirror node holds.
	frozen []stats.FrozenGaussian
	bw     [][]float64
	logNc  []float64
	// kern holds the leaf kernel frozen at each class's bandwidths.
	kern []*kernels.FrozenGaussianKernel
	// ceilLn[n] ≥ Log(s) for every float s ≤ n (Log is within an ulp of
	// ln, so two steps up from Log(n)); 0 for n ≤ 1. See MultiQuery.push.
	ceilLn []float64
}

// NewMultiTree creates an empty tree over the given class labels (which
// fix the per-entry CF layout). One label makes one class tree of the
// per-class forest (Classifier).
func NewMultiTree(cfg Config, labels []int, mopts MultiOptions) (*MultiTree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("core: tree without classes")
	}
	index := make(map[int]int, len(labels))
	for i, l := range labels {
		if _, dup := index[l]; dup {
			return nil, fmt.Errorf("core: duplicate class label %d", l)
		}
		index[l] = i
	}
	return &MultiTree{
		cfg:      cfg,
		mopts:    mopts,
		labels:   append([]int(nil), labels...),
		index:    index,
		root:     &MultiNode{leaf: true},
		counts:   make([]float64, len(labels)),
		npoints:  make([]int, len(labels)),
		balanced: true,
	}, nil
}

// Labels returns the class labels in tree order.
func (t *MultiTree) Labels() []int { return append([]int(nil), t.labels...) }

// Len returns the number of stored observations.
func (t *MultiTree) Len() int { return t.size }

// Published returns Len() and Weight() as of the end of the last
// mutation or constructor, without the caller holding the tree's lock:
// what a server reads to split a budget and weigh shard scores. A
// concurrent mutation may publish one of the two before the other.
func (t *MultiTree) Published() (n int, weight float64) {
	return int(t.pubLen.Load()), math.Float64frombits(t.pubWeight.Load())
}

// publish stores the pair Published reads. Every mutation and
// constructor ends with it but NewMultiTree, whose zero values are the
// empty tree's pair.
func (t *MultiTree) publish() {
	t.pubLen.Store(int64(t.size))
	t.pubWeight.Store(math.Float64bits(t.Weight()))
}

// Config returns the tree's structural parameters.
func (t *MultiTree) Config() Config { return t.cfg }

// Options returns the multi-class options the tree was built with.
func (t *MultiTree) Options() MultiOptions { return t.mopts }

// Counts returns a copy of the per-class observation counts, indexed in
// Labels order. Counts are float64 so decayed-weight extensions keep
// working; for plain trees they are integral.
func (t *MultiTree) Counts() []float64 { return append([]float64(nil), t.counts...) }

// Root returns the root node for read-only traversal.
func (t *MultiTree) Root() *MultiNode { return t.root }

// Balanced reports whether the construction guaranteed equal leaf depths.
func (t *MultiTree) Balanced() bool { return t.balanced }

// Stats walks the tree and reports its shape.
func (t *MultiTree) Stats() Stats { return shapeStats(t.root) }

// ApproxBytes estimates the tree's resident memory: per node, the
// parent entry that summarises it — a rectangle, the pooled cluster
// feature and a cluster feature per class, all vectors of Dim float64s,
// of which an absent class has none — and per observation its
// coordinates; plus the descent mirror's blocks, counted exactly, once a
// query has built it. It is an estimate (the allocator rounds sizes up),
// good to well within a factor of two.
func (t *MultiTree) ApproxBytes() int64 {
	const word, slice int64 = 8, 24
	vec := int64(t.cfg.Dim) * word
	nc := int64(len(t.labels))
	cf := word + 2*slice // stats.CF without its LS, SS
	node := 4 * slice    // MultiNode
	entry := 3*slice + word + 2*vec + cf + 2*vec + nc*cf
	point := slice + word + vec // LabeledPoint and its coordinates
	total := int64(t.CountNodes())*(node+entry) + int64(heldClasses(t.root))*2*vec + int64(t.size)*point
	if s := t.soa.Load(); s != nil {
		total += s.bytes()
	}
	return total
}

// summarize computes the MultiEntry describing node n. Its Rect, Total
// and the vectors of every class with mass below n are carved out of one
// block, each vector cap-bounded so that none can grow into the next; an
// absent class keeps a zero CF without vectors.
func (t *MultiTree) summarize(n *MultiNode) MultiEntry {
	d := t.cfg.Dim
	cfs := make([]stats.CF, len(t.labels))
	blk := make([]float64, (4+2*t.markClasses(cfs, n))*d)
	vec := func() []float64 {
		v := blk[:d:d]
		blk = blk[d:]
		return v
	}
	e := MultiEntry{Rect: mbr.Rect{Lo: vec(), Hi: vec()}, CFs: cfs, Total: stats.CF{LS: vec(), SS: vec()}, Child: n}
	fillEmpty(e.Rect)
	for i := range cfs {
		if cfs[i].N > 0 {
			cfs[i] = stats.CF{LS: vec(), SS: vec()}
		}
	}
	t.accumulate(&e, n)
	return e
}

// markClasses sets cfs[c].N to 1 for every class c with mass below n —
// a point of c with a positive weight, or, above a leaf, a child's entry
// with mass of c — and returns how many classes it marked.
func (t *MultiTree) markClasses(cfs []stats.CF, n *MultiNode) int {
	held := 0
	mark := func(c int) {
		if cfs[c].N == 0 {
			cfs[c].N = 1
			held++
		}
	}
	for i, p := range n.points {
		if n.weights == nil || n.weights[i] > 0 {
			mark(t.index[p.Label])
		}
	}
	for i := range n.entries {
		for c := range cfs {
			if n.entries[i].CFs[c].N > 0 {
				mark(c)
			}
		}
	}
	return held
}

// classVectors gives cf, a class CF without vectors, its own zero ones.
func (t *MultiTree) classVectors(cf *stats.CF) {
	d := t.cfg.Dim
	blk := make([]float64, 2*d)
	*cf = stats.CF{LS: blk[:d:d], SS: blk[d:]}
}

// resummarize recomputes e = summarize(n) in e's own vectors: a class
// that lost its mass below n drops its vectors, one that gained mass
// gets new ones.
func (t *MultiTree) resummarize(e *MultiEntry, n *MultiNode) {
	for c := range e.CFs {
		e.CFs[c].N = 0
	}
	t.markClasses(e.CFs, n)
	for c := range e.CFs {
		switch cf := &e.CFs[c]; {
		case cf.N <= 0:
			*cf = stats.CF{}
		case cf.LS == nil:
			t.classVectors(cf)
		default:
			cf.Reset()
		}
	}
	fillEmpty(e.Rect)
	e.Total.Reset()
	t.accumulate(e, n)
}

// SummaryHook, when set, is told how many observations or child entries
// each cluster-feature summary folds in: a test's count of a build's
// work. It is nil outside such a test, which sets it only while nothing
// else runs a tree.
var SummaryHook func(items int)

// accumulate adds n's points, or its entries, into the empty summary e,
// in order. e holds vectors for every class with mass below n, and a
// child's absent class merges its zero count only: adding the zero
// vectors it has not would leave every bit, as a sum that starts at +0
// never becomes −0.
func (t *MultiTree) accumulate(e *MultiEntry, n *MultiNode) {
	if SummaryHook != nil {
		SummaryHook(len(n.points) + len(n.entries))
	}
	if n.leaf {
		if n.weights == nil {
			for _, p := range n.points {
				e.Rect.ExtendPoint(p.X)
				ci := t.index[p.Label]
				e.CFs[ci].Add(p.X)
				e.Total.Add(p.X)
			}
		} else {
			for i, p := range n.points {
				e.Rect.ExtendPoint(p.X)
				if cf := &e.CFs[t.index[p.Label]]; cf.LS != nil {
					cf.AddWeighted(p.X, n.weights[i])
				}
				e.Total.AddWeighted(p.X, n.weights[i])
			}
		}
	} else {
		for i := range n.entries {
			e.Rect.Extend(n.entries[i].Rect)
			for c := range e.CFs {
				e.CFs[c].Merge(n.entries[i].CFs[c])
			}
			e.Total.Merge(n.entries[i].Total)
		}
	}
}

// refreshClass brings e = summarize(n) up to date, in e's own vectors,
// after an insert of class c below n changed its CFs[c], Total and Rect;
// every other class keeps its bits because its inputs kept theirs. A
// class new to e gets its vectors here.
//
// Precondition: e was summarize(n) before the insert, and at a leaf the
// inserted point is n's last. A leaf entry is then summarize's in-order
// sum with one step to go, so adding the new point into class c, Total
// and Rect is that step — bit for bit, also when the leaf's first
// non-unit weight has just arrived, since Add(x) and AddWeighted(x, 1)
// produce the same bits. Above a leaf the changed child is not the last
// one summed, so class c, Total and Rect are re-merged over every entry
// in summarize's order: a sum is not re-associated, and which of +0 and
// −0 a bound keeps depends on the order of extension.
func (t *MultiTree) refreshClass(e *MultiEntry, n *MultiNode, c int) {
	cf := &e.CFs[c]
	if cf.LS == nil {
		t.classVectors(cf)
	}
	if n.leaf {
		last := len(n.points) - 1
		x := n.points[last].X
		e.Rect.ExtendPoint(x)
		if n.weights == nil {
			cf.Add(x)
			e.Total.Add(x)
		} else {
			cf.AddWeighted(x, n.weights[last])
			e.Total.AddWeighted(x, n.weights[last])
		}
		return
	}
	cf.Reset()
	e.Total.Reset()
	fillEmpty(e.Rect)
	for i := range n.entries {
		e.Rect.Extend(n.entries[i].Rect)
		cf.Merge(n.entries[i].CFs[c])
		e.Total.Merge(n.entries[i].Total)
	}
}

// Insert adds a labeled observation: a descent by least area
// enlargement, the point appended to its leaf, overflows split (R*'s
// topological split) and the per-class cluster features, query constants
// and mirror along the path brought up to date.
func (t *MultiTree) Insert(x []float64, label int) error {
	if err := checkPoint(x, t.cfg.Dim); err != nil {
		return err
	}
	ci, ok := t.index[label]
	if !ok {
		return fmt.Errorf("core: unknown class label %d", label)
	}
	cp := make([]float64, len(x))
	copy(cp, x)
	// Counted first: the insert ends in invalidate, which patches the
	// cached query constants of this class from its new count.
	t.size++
	t.counts[ci]++
	t.npoints[ci]++
	t.insertPointW(LabeledPoint{X: cp, Label: label}, 1, ci)
	t.publish()
	return nil
}

// insertPointW inserts p, of class index c, at leaf level with the given
// weight: 1 for an insert, the decayed weight for an observation a decay
// step reinserts.
func (t *MultiTree) insertPointW(p LabeledPoint, w float64, c int) {
	rect := mbr.Rect{Lo: p.X, Hi: p.X}
	path := append(t.path[:0], t.root)
	n := t.root
	for !n.leaf {
		idx := t.chooseSubtree(n, rect)
		n = n.entries[idx].Child
		path = append(path, n)
	}
	t.path = path
	n.appendPoint(p, w)
	t.invalidate(path, t.fixOverflow(path, c), c)
}

func (t *MultiTree) chooseSubtree(n *MultiNode, r mbr.Rect) int {
	best := 0
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for i := range n.entries {
		area := n.entries[i].Rect.Area()
		enl := mbr.UnionArea(n.entries[i].Rect, r) - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// fixOverflow splits overflowing nodes bottom-up and reports how many
// levels of the path, counted from the leaf, it replaced by a pair of
// new siblings (len(path) when the root split) — what the SoA mirror
// needs to repair itself along the path: those nodes are gone, the ones
// above them survive with changed contents. c is the inserted point's
// class: with no split, class c of the path's entries is all that
// changed.
func (t *MultiTree) fixOverflow(path []*MultiNode, c int) int {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		over := (n.leaf && len(n.points) > t.cfg.MaxLeaf) || (!n.leaf && len(n.entries) > t.cfg.MaxFanout)
		if !over {
			// One refresh of this prefix covers all remaining levels
			// (they gained no entries). Above a split it re-summarises:
			// the split reordered the entries every class's sums run
			// over.
			replaced := len(path) - 1 - i
			if replaced > 0 {
				c = allClasses
			}
			t.refreshPath(path[:i+1], c)
			return replaced
		}
		t.splitAt(path, i)
	}
	return len(path)
}

// splitAt splits path[i] into two halves. A split root leaves a new
// root over both; otherwise the entry over path[i] in its parent is
// re-summarised over the left half in its own vectors, and only the
// right half's entry is new.
func (t *MultiTree) splitAt(path []*MultiNode, i int) {
	left, right := t.splitNode(path[i])
	if i == 0 {
		t.root = &MultiNode{entries: []MultiEntry{t.summarize(left), t.summarize(right)}}
		return
	}
	parent := path[i-1]
	e := &parent.entries[entryOver(parent, path[i])]
	e.Child = left
	t.resummarize(e, left)
	parent.entries = append(parent.entries, t.summarize(right))
}

// allClasses asks refreshPath to re-summarise instead of refreshing one
// class.
const allClasses = -1

// refreshPath brings the entries along path up to date with their
// children, leaf to root, in their own vectors: class c of each
// (refreshClass), or the whole entry for allClasses.
func (t *MultiTree) refreshPath(path []*MultiNode, c int) {
	for i := len(path) - 1; i >= 1; i-- {
		child := path[i]
		e := &path[i-1].entries[entryOver(path[i-1], child)]
		if c == allClasses {
			t.resummarize(e, child)
		} else {
			t.refreshClass(e, child, c)
		}
	}
}

// entryOver returns the index of n's entry over child, one of n's
// children.
func entryOver(n, child *MultiNode) int {
	for j := range n.entries {
		if n.entries[j].Child == child {
			return j
		}
	}
	panic("core: node is not a child of its path parent")
}

// queryConsts returns the cached query-time constants, rebuilding them on
// first use after a structural mutation (a benign publication race
// builds identical values).
func (t *MultiTree) queryConsts() *multiQueryState {
	if st := t.queryState.Load(); st != nil {
		return st
	}
	nc := len(t.labels)
	st := &multiQueryState{
		root:   t.summarize(t.root),
		frozen: make([]stats.FrozenGaussian, nc),
		bw:     make([][]float64, nc),
		logNc:  make([]float64, nc),
		kern:   make([]*kernels.FrozenGaussianKernel, nc),
		ceilLn: make([]float64, nc+1),
	}
	for c := 0; c < nc; c++ {
		t.classConsts(st, c)
	}
	for n := 2; n <= nc; n++ {
		st.ceilLn[n] = math.Nextafter(math.Nextafter(math.Log(float64(n)), math.Inf(1)), math.Inf(1))
	}
	t.queryState.Store(st)
	return st
}

// classConsts derives class c's query constants from the state's root
// summary and the class counts: the root's frozen Gaussian, the Silverman
// bandwidths (from the point count, so a decay sweep's rescale cannot
// move them), the log mass and the leaf kernel frozen at those
// bandwidths. It rewrites the class's earlier constants in place, so
// patching a class after an insert allocates nothing; a class with no
// mass at the root gets a log mass only (its densities stay zero).
func (t *MultiTree) classConsts(st *multiQueryState, c int) {
	cf, f := &st.root.CFs[c], &st.frozen[c]
	if t.counts[c] > 0 {
		st.logNc[c] = math.Log(t.counts[c])
	} else {
		st.logNc[c] = math.Inf(1)
	}
	if cf.N <= 0 {
		return
	}
	if t.mopts.PooledVariance {
		// One variance, frozen from Total, serves every class: rewritten
		// through class c and aliased by the rest (the state is private,
		// so nothing else can write through the alias).
		f.SetMean(cf)
		f.SetVariance(&st.root.Total)
		for o := range st.frozen {
			st.frozen[o].ShareVariance(f)
		}
	} else {
		stats.FreezeInto(f, cf)
	}
	bw := st.bw[c] // the standard deviations, then the bandwidths
	if len(bw) != t.cfg.Dim {
		bw = make([]float64, t.cfg.Dim)
	}
	for i, v := range cf.VarianceInto(bw) {
		bw[i] = math.Sqrt(v)
	}
	st.bw[c] = stats.SilvermanBandwidth(bw, t.npoints[c], t.cfg.Dim)
	st.kern[c] = kernels.FreezeBandwidth(st.kern[c], st.bw[c])
}

// multiRef is the payload of a MultiQuery's frontier element. Its
// per-class log terms live in the query's shared arena at
// [termOff, termOff+nc) — one contiguous slice per query instead of one
// heap allocation per element. node is the index, in the query's mirror,
// of the node to read.
type multiRef struct {
	termOff int32
	node    int32
}

// MultiQuery is an in-progress anytime classification against a
// MultiTree. One Step refines all class models simultaneously. Queries
// are pooled — call Close when done to recycle the buffers.
type MultiQuery struct {
	t      *MultiTree
	x      []float64
	opts   ClassifierOptions
	front  frontier
	accs   []accumulator // one per class
	kern   []*kernels.FrozenGaussianKernel
	logNc  []float64
	ceilLn []float64
	obs    []int
	obsBuf []int
	reads  int
	swept  int // inner rows swept, for the count pins
	exact  int // exact priorities settle computed, for the count pins
	// terms is the arena behind every frontier element (see
	// multiRef.termOff): its nc per-class log terms, the nc values the
	// accumulators summed for them and the lower bound of its priority
	// (soa.go).
	terms []float64
	// fresh is the arena offset from which stored values are current: an
	// element below it was pushed before some class's shift moved.
	fresh int
	// soa is the mirror this query descends through, as loaded at start.
	soa      *multiSoA
	outBuf   []float64
	scoreBuf []float64
}

var multiQueryPool = sync.Pool{New: func() any { return new(MultiQuery) }}

// NewQuery starts an anytime classification of x. It returns an error for
// an empty tree or one with empty classes. The query descends through the
// tree's structure-of-arrays mirror, which the first query after a build
// or a structural mutation builds (soa.go). Call Close when done with the
// query.
func (t *MultiTree) NewQuery(x []float64, opts ClassifierOptions) (*MultiQuery, error) {
	if t.size == 0 {
		return nil, fmt.Errorf("core: query against empty multi tree")
	}
	q := multiQueryPool.Get().(*MultiQuery)
	t.start(q, x, opts)
	return q, nil
}

// start begins an anytime classification of x in q, reusing its
// buffers; the tree must not be empty.
func (t *MultiTree) start(q *MultiQuery, x []float64, opts ClassifierOptions) {
	st := t.queryConsts()
	nc := len(t.labels)
	q.t = t
	q.x = x
	q.opts = opts
	q.reads, q.swept, q.exact = 0, 0, 0
	q.front.reset(opts.Strategy)
	if cap(q.accs) < nc {
		// Whole 64-byte lines come from a size class of whole lines: no
		// other core's query shares them (EXPERIMENTS.md "PR 19").
		q.accs = make([]accumulator, nc, (nc+3)&^3)
	}
	q.accs = q.accs[:nc]
	for c := range q.accs {
		q.accs[c].reset()
	}
	q.kern = st.kern
	q.logNc = st.logNc
	q.ceilLn = st.ceilLn
	q.obs, q.obsBuf = stats.ObservedDimsInto(x, q.obsBuf)
	q.soa = t.mirror()
	// The frontier starts as the root summary: its per-class terms, and
	// mirror node 0 to read first, keyed exactly.
	q.fresh = 0
	q.grow()
	for c := range st.frozen {
		term, v := math.Inf(-1), 0.0
		if st.root.CFs[c].N > 0 && !math.IsInf(q.logNc[c], 1) {
			f := &st.frozen[c]
			term = f.LogN - q.logNc[c] + f.LogPDFObs(q.x, q.obs)
			v = q.accs[c].add(term)
		}
		q.terms[c], q.terms[nc+c] = term, v
	}
	q.front.push(0, multiRef{})
}

// Close releases the query's buffers back to the pool. The query must
// not be used afterwards; Scores slices returned earlier stay valid.
func (q *MultiQuery) Close() {
	if q == nil || q.t == nil {
		return
	}
	q.release()
	multiQueryPool.Put(q)
}

// release ends the query, dropping what it references and keeping its
// buffers for the next start.
func (q *MultiQuery) release() {
	q.terms = q.terms[:0]
	q.t, q.x, q.obs = nil, nil, nil
	q.kern, q.logNc, q.ceilLn = nil, nil, nil
	q.soa = nil
}

// UsedSoA reports whether this query descends through the
// structure-of-arrays mirror: always, since it is the only descent.
func (q *MultiQuery) UsedSoA() bool { return true }

// NodesRead returns the nodes read so far.
func (q *MultiQuery) NodesRead() int { return q.reads }

// Exhausted reports whether the model is fully refined.
func (q *MultiQuery) Exhausted() bool { return q.front.exhausted() }

// Step refines one node, updating every class model at once. It reports
// whether a node was read. The element read leaves the accumulators by
// the values they summed for it, unless a shift has moved since.
func (q *MultiQuery) Step() bool {
	q.settle()
	e, ok := q.front.pop()
	if !ok {
		return false
	}
	q.reads++
	off, nc := int(e.termOff), len(q.accs)
	if off >= q.fresh {
		for c, v := range q.terms[off+nc : off+2*nc] {
			q.accs[c].sub(v)
		}
	} else {
		for c, l := range q.terms[off : off+nc] {
			q.accs[c].remove(l)
		}
	}
	q.refineSoA(int(e.node))
	return true
}

// scoresInto writes the per-class log posterior scores into out (grown
// when too small). Priors normalise by the summed class masses, not the
// point count: for undecayed trees the two are the same integral float64
// value (digit-identical), while for decayed trees only the mass sum
// keeps shard-combined scores on one scale.
func (q *MultiQuery) scoresInto(out []float64) []float64 {
	nc := len(q.t.labels)
	if cap(out) < nc {
		out = make([]float64, nc)
	}
	out = out[:nc]
	var total float64
	for _, c := range q.t.counts {
		total += c
	}
	for c := range out {
		if q.t.counts[c] <= 0 || q.accs[c].sum <= 0 || total <= 0 {
			out[c] = math.Inf(-1)
			continue
		}
		logPrior := 0.0 // log 1: the class holds all of the tree's mass
		if q.t.counts[c] != total {
			logPrior = math.Log(q.t.counts[c] / total)
		}
		out[c] = logPrior + q.accs[c].shift + math.Log(q.accs[c].sum)
	}
	return out
}

// Scores returns the current per-class log posterior scores (class
// prior times anytime density estimate, up to the shared evidence
// constant), indexed in Labels order; classes with no mass score −Inf.
// Serving layers that shard one population across several trees combine
// shard scores with a size-weighted log-sum-exp — CF additivity makes
// the union model exactly the weighted mixture of the shard models.
func (q *MultiQuery) Scores() []float64 { return q.scoresInto(make([]float64, len(q.t.labels))) }

// Posteriors returns the current normalised posterior estimates P(c|x),
// indexed in Labels order.
func (q *MultiQuery) Posteriors() []float64 { return posteriors(q.scoresInto(q.scoreBuf)) }

// Predict returns the currently most probable label.
func (q *MultiQuery) Predict() int {
	s := q.scoresInto(q.scoreBuf)
	q.scoreBuf = s
	best := 0
	for i := 1; i < len(s); i++ {
		if s[i] > s[best] {
			best = i
		}
	}
	return q.t.labels[best]
}

// Classify runs an anytime classification with the given node budget
// (negative = until exhausted) and returns the prediction.
func (t *MultiTree) Classify(x []float64, opts ClassifierOptions, budget int) (int, error) {
	q, err := t.NewQuery(x, opts)
	if err != nil {
		return 0, err
	}
	for i := 0; budget < 0 || i < budget; i++ {
		if !q.Step() {
			break
		}
	}
	label := q.Predict()
	q.Close()
	return label, nil
}

// ClassifyTrace records the prediction after every node read, as
// Classifier.ClassifyTrace does for the per-class forest (a negative
// budget counts as 0 there too).
func (t *MultiTree) ClassifyTrace(x []float64, opts ClassifierOptions, budget int) ([]int, error) {
	q, err := t.NewQuery(x, opts)
	if err != nil {
		return nil, err
	}
	trace := make([]int, max(budget, 0)+1)
	trace[0] = q.Predict()
	for i := 1; i < len(trace); i++ {
		if q.Step() {
			trace[i] = q.Predict()
		} else {
			trace[i] = trace[i-1]
		}
	}
	q.Close()
	return trace, nil
}

// addMasses adds the observation weights of leaf n to masses and their
// number to points, by class index, refusing a label the tree does not
// have.
func (t *MultiTree) addMasses(masses []float64, points []int, n *MultiNode) error {
	for i, p := range n.points {
		c, ok := t.index[p.Label]
		if !ok {
			return fmt.Errorf("core: point with unknown label %d", p.Label)
		}
		points[c]++
		if n.weights == nil {
			masses[c]++
		} else {
			masses[c] += n.weights[i]
		}
	}
	return nil
}

// checkCounts holds each class count to its leaves' class mass, within
// 1e-6 (relative), and each class point count to theirs exactly; a
// negative or non-finite count never passes.
func (t *MultiTree) checkCounts(masses []float64, points []int) error {
	for c, n := range t.counts {
		if n < 0 || !(math.Abs(n-masses[c]) <= 1e-6*(1+masses[c])) {
			return fmt.Errorf("core: class %d count %v but the tree holds %v", t.labels[c], n, masses[c])
		}
		if t.npoints[c] != points[c] {
			return fmt.Errorf("core: class %d point count %d but the tree holds %d", t.labels[c], t.npoints[c], points[c])
		}
	}
	return nil
}

// Validate checks the Bayes tree invariants: every inner entry has a
// child and a valid rectangle that bounds its subtree, and cluster
// features — per class and pooled — that sum it, within floating-point
// tolerance; capacities are respected (the minimum fill below the root
// only in a balanced tree), the class counts and the size match the
// leaves, and a balanced tree's leaves share one depth. It returns the
// first violation.
func (t *MultiTree) Validate() error {
	if n, w := t.Published(); n != t.size || math.Float64bits(w) != math.Float64bits(t.Weight()) {
		return fmt.Errorf("core: published (%d, %v), the tree holds (%d, %v)", n, w, t.size, t.Weight())
	}
	if t.size == 0 {
		return nil
	}
	const tol = 1e-6
	masses, points := make([]float64, len(t.labels)), make([]int, len(t.labels))
	var walk func(n *MultiNode, isRoot bool) error
	walk = func(n *MultiNode, isRoot bool) error {
		if err := checkShape(n, &t.cfg, isRoot, t.balanced); err != nil {
			return err
		}
		if err := t.addMasses(masses, points, n); err != nil {
			return err
		}
		for i := range n.entries {
			e := &n.entries[i]
			if e.Child == nil {
				return fmt.Errorf("core: entry %d has no child", i)
			}
			if err := e.Rect.Validate(); err != nil {
				return fmt.Errorf("core: invalid entry rect: %w", err)
			}
			want := t.summarize(e.Child)
			for k := 0; k < t.cfg.Dim; k++ {
				if math.Abs(e.Rect.Lo[k]-want.Rect.Lo[k]) > tol || math.Abs(e.Rect.Hi[k]-want.Rect.Hi[k]) > tol {
					return fmt.Errorf("core: stale MBR in dim %d: have [%v,%v], want [%v,%v]",
						k, e.Rect.Lo[k], e.Rect.Hi[k], want.Rect.Lo[k], want.Rect.Hi[k])
				}
			}
			for c := range e.CFs {
				if (e.CFs[c].LS == nil) != (want.CFs[c].LS == nil) {
					return fmt.Errorf("core: class %d: entry holds vectors %v, its subtree has mass %v", t.labels[c], e.CFs[c].LS != nil, want.CFs[c].N)
				}
				if err := checkCF(&e.CFs[c], &want.CFs[c], tol); err != nil {
					return fmt.Errorf("core: class %d: %w", t.labels[c], err)
				}
			}
			if err := checkCF(&e.Total, &want.Total, tol); err != nil {
				return fmt.Errorf("core: pooled: %w", err)
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
		if err := checkBalanced(t.root); err != nil {
			return err
		}
	}
	return t.checkCounts(masses, points)
}

// checkCF holds a stored cluster feature to the one its subtree sums
// to: a valid feature (finite, so no comparison below meets a NaN), the
// count within tol, the linear and square sums within tol scaled by the
// count (×10 and ×100).
func checkCF(have, want *stats.CF, tol float64) error {
	if err := have.Validate(); err != nil {
		return err
	}
	if math.Abs(have.N-want.N) > tol {
		return fmt.Errorf("stale CF count: have %v, want %v", have.N, want.N)
	}
	scale := math.Max(1, math.Abs(want.N))
	for k := range want.LS {
		if math.Abs(have.LS[k]-want.LS[k]) > tol*scale*10 {
			return fmt.Errorf("stale CF LS[%d]: have %v, want %v", k, have.LS[k], want.LS[k])
		}
		if math.Abs(have.SS[k]-want.SS[k]) > tol*scale*100 {
			return fmt.Errorf("stale CF SS[%d]: have %v, want %v", k, have.SS[k], want.SS[k])
		}
	}
	return nil
}
