package core

import (
	"math"
	"sync"

	"bayestree/internal/kernels"
	"bayestree/internal/stats"
)

// Strategy selects the tree traversal order of Section 2.2.
type Strategy int

// Traversal strategies evaluated in the paper.
const (
	// DescentGlobal ("glo") refines the globally best entry by priority.
	DescentGlobal Strategy = iota
	// DescentBFT refines in breadth-first order.
	DescentBFT
	// DescentDFT refines in depth-first order.
	DescentDFT
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case DescentGlobal:
		return "glo"
	case DescentBFT:
		return "bft"
	case DescentDFT:
		return "dft"
	}
	return "unknown"
}

// Priority selects the ordering measure for global best-first descent.
type Priority int

// Priority measures evaluated in the paper.
const (
	// PriorityProbabilistic orders by the weighted probability density of
	// the entry's Gaussian at the query (higher first).
	PriorityProbabilistic Priority = iota
	// PriorityGeometric orders by the distance from the query to the
	// entry's MBR (closer first).
	PriorityGeometric
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityProbabilistic:
		return "prob"
	case PriorityGeometric:
		return "geom"
	}
	return "unknown"
}

// item is one refinable element of an anytime frontier: an entry whose
// subtree can be expanded by one node read. The payload is what the
// query needs to expand it.
type item[T any] struct {
	prio    float64 // refinement priority, higher first
	seq     int     // push order: FIFO tie-break for determinism
	payload T
}

// before orders the max-heap: highest prio first, FIFO seq as tie-break.
func (e *item[T]) before(other *item[T]) bool {
	if e.prio != other.prio {
		return e.prio > other.prio
	}
	return e.seq < other.seq
}

// frontier holds the refinable elements of one anytime query in the
// order its descent strategy consumes them: a max-heap for
// DescentGlobal, a queue for DescentBFT, a stack for DescentDFT. Cursor,
// MultiQuery and the test oracle all descend through it.
type frontier[T any] struct {
	strategy Strategy
	heap     pheap[T]
	fifo     []item[T]
	head     int // consumed prefix of fifo (DescentBFT)
	seq      int
}

// reset empties the frontier for a query of the given strategy, keeping
// the backing arrays.
func (f *frontier[T]) reset(s Strategy) {
	f.strategy = s
	f.heap, f.fifo = f.heap[:0], f.fifo[:0]
	f.head, f.seq = 0, 0
}

// push enqueues an element, numbered in push order, for refinement.
func (f *frontier[T]) push(prio float64, payload T) {
	e := item[T]{prio: prio, seq: f.seq, payload: payload}
	f.seq++
	if f.strategy == DescentGlobal {
		f.heap.push(e)
	} else {
		f.fifo = append(f.fifo, e)
	}
}

// pop removes and returns the next element to refine; false when the
// frontier is exhausted.
func (f *frontier[T]) pop() (payload T, ok bool) {
	if f.exhausted() {
		return payload, false
	}
	switch f.strategy {
	case DescentGlobal:
		return f.heap.pop().payload, true
	case DescentBFT:
		payload = f.fifo[f.head].payload
		f.head++
		// Periodically compact the consumed prefix in place: sliding the
		// live tail down reuses the existing backing array instead of
		// allocating a fresh slice on every compaction.
		if f.head > 1024 && f.head*2 > len(f.fifo) {
			n := copy(f.fifo, f.fifo[f.head:])
			clear(f.fifo[n:]) // drop node pointers in the vacated tail
			f.fifo = f.fifo[:n]
			f.head = 0
		}
		return payload, true
	default: // DescentDFT
		payload = f.fifo[len(f.fifo)-1].payload
		f.fifo = f.fifo[:len(f.fifo)-1]
		return payload, true
	}
}

// exhausted reports whether nothing is left to refine.
func (f *frontier[T]) exhausted() bool {
	if f.strategy == DescentGlobal {
		return len(f.heap) == 0
	}
	return f.head >= len(f.fifo)
}

// release empties both queues through their full capacity before the
// query goes back to its pool: consumed FIFO prefixes and popped DFT
// suffixes linger in the backing arrays and would otherwise pin tree
// nodes from the pool.
func (f *frontier[T]) release() {
	clear(f.heap[:cap(f.heap)])
	clear(f.fifo[:cap(f.fifo)])
}

// accumulator is a running log-sum-exp: Σ exp(l) over the terms added
// and not yet removed is sum·exp(shift). A Cursor keeps one, a
// MultiQuery one per class.
type accumulator struct {
	sum, shift float64
}

// reset empties the accumulator: no terms, so no shift yet.
func (a *accumulator) reset() { *a = accumulator{shift: math.Inf(-1)} }

// add accumulates exp(l) into the shifted linear accumulator, rescaling
// when a dominant new term arrives, and returns the value it added to
// sum: while shift stays where it is, the bits remove(l) would subtract.
// shift only ever grows, so a caller sees it move by comparing.
func (a *accumulator) add(l float64) float64 {
	if math.IsInf(l, -1) {
		return 0
	}
	if math.IsInf(a.shift, -1) {
		a.shift = l
		a.sum = 1
		return 1
	}
	if l > a.shift+30 {
		a.sum *= math.Exp(a.shift - l)
		a.shift = l
	}
	v := math.Exp(l - a.shift)
	a.sum += v
	return v
}

// remove removes exp(l) from the accumulator.
func (a *accumulator) remove(l float64) {
	if math.IsInf(l, -1) || math.IsInf(a.shift, -1) {
		return
	}
	a.sub(math.Exp(l - a.shift))
}

// sub subtracts a value add returned, clamping tiny negative residues
// from floating-point cancellation.
func (a *accumulator) sub(v float64) {
	a.sum -= v
	if a.sum < 0 {
		a.sum = 0
	}
}

// cursorRef is the payload of a Cursor's frontier element: the entry's
// log contribution to the mixture density at x and the node to read.
type cursorRef struct {
	logTerm float64
	child   *Node
}

// Cursor is an in-progress anytime probability density query against one
// Bayes tree (Definition 3 plus the time-step refinement of Section 2.2).
// It starts from the frontier {root entry} — the coarsest complete model —
// and each Refine call reads one node, replacing a frontier entry by its
// children (or, at leaf level, by the kernel estimators of its
// observations) and updating the mixture density incrementally.
type Cursor struct {
	tree     *Cursorable
	x        []float64
	priority Priority

	front  frontier[cursorRef]
	acc    accumulator // Σ exp(logTerm) over the current frontier
	reads  int
	logN   float64
	obs    []int // observed dims for missing-value queries (nil = all)
	obsBuf []int // retained backing array for obs across pooled reuses
}

// cursorPool recycles cursors — and, crucially, their heap/FIFO backing
// arrays and observed-dimension scratch — across queries. A stream serving
// one query per arrival would otherwise regrow these for every object.
var cursorPool = sync.Pool{New: func() interface{} { return new(Cursor) }}

// Cursorable is a Tree's cached query-time constants: what every cursor
// needs from the tree but no cursor should recompute.
type Cursorable struct {
	root Entry
	// kern is the leaf kernel frozen at the tree's bandwidths, so leaf
	// refinement performs no bandwidth-derived recomputation per point.
	kern kernels.FrozenKernel
}

// NewCursor starts an anytime density query for x against the tree.
// NaN coordinates in x mark missing values; the density is then the
// marginal over the observed dimensions (Section 4.2 extension). It
// returns nil for an empty tree.
func (t *Tree) NewCursor(x []float64, strategy Strategy, priority Priority) *Cursor {
	ct := t.cursorable()
	if ct == nil {
		return nil
	}
	c := cursorPool.Get().(*Cursor)
	c.tree = ct
	c.x = x
	c.priority = priority
	c.front.reset(strategy)
	c.acc.reset()
	c.reads = 0
	c.logN = math.Log(ct.root.CF.N)
	c.obs, c.obsBuf = stats.ObservedDimsInto(x, c.obsBuf)
	// The level-0 model: a single Gaussian over the entire population,
	// available without reading any node.
	logTerm := ct.root.Frozen().LogPDFObs(x, c.obs) // weight n/n = 1
	c.front.push(c.prioFor(&ct.root, logTerm), cursorRef{logTerm: logTerm, child: ct.root.Child})
	c.acc.add(logTerm)
	return c
}

// Close returns the cursor to the package pool so later queries can reuse
// its backing arrays. The cursor must not be used afterwards. Calling
// Close is optional — an unclosed cursor is simply garbage collected — but
// closing is what makes the steady-state query path allocation-free.
func (c *Cursor) Close() {
	if c == nil || c.tree == nil {
		// Nil or already closed: a double Close must not double-Put the
		// cursor, or two later queries would share one pooled instance.
		return
	}
	c.front.release()
	c.tree = nil
	c.x = nil
	c.obs = nil
	cursorPool.Put(c)
}

// prioFor computes the refinement priority of an entry.
func (c *Cursor) prioFor(e *Entry, logTerm float64) float64 {
	if c.priority == PriorityGeometric {
		return -e.Rect.MinDist2Obs(c.x, c.obs)
	}
	return logTerm
}

// Exhausted reports whether the frontier is fully refined to kernels.
func (c *Cursor) Exhausted() bool { return c.front.exhausted() }

// NodesRead returns the number of nodes read so far.
func (c *Cursor) NodesRead() int { return c.reads }

// LogDensity returns the current log mixture density pdq(x, E) for the
// frontier E (Definition 3).
func (c *Cursor) LogDensity() float64 {
	if c.acc.sum <= 0 {
		return math.Inf(-1)
	}
	return c.acc.shift + math.Log(c.acc.sum)
}

// Refine reads one more node, replacing the next frontier entry by its
// children per the descent strategy. It reports whether a node was read
// (false when the model is fully refined).
func (c *Cursor) Refine() bool {
	e, ok := c.front.pop()
	if !ok {
		return false
	}
	c.reads++
	c.acc.remove(e.logTerm)
	n := e.child
	if n.leaf {
		if n.weights == nil {
			for _, p := range n.points {
				logTerm := -c.logN + c.tree.kern.LogDensityObs(c.x, p, c.obs)
				c.acc.add(logTerm)
			}
		} else {
			// Decayed leaves weight each kernel by its observation's
			// faded mass (weights and logN share the reference-epoch
			// scale, so the outstanding decay factor cancels).
			for i, p := range n.points {
				logTerm := math.Log(n.weights[i]) - c.logN + c.tree.kern.LogDensityObs(c.x, p, c.obs)
				c.acc.add(logTerm)
			}
		}
		return true
	}
	for i := range n.entries {
		en := &n.entries[i]
		f := en.Frozen()
		logTerm := f.LogN - c.logN + f.LogPDFObs(c.x, c.obs)
		c.front.push(c.prioFor(en, logTerm), cursorRef{logTerm: logTerm, child: en.Child})
		c.acc.add(logTerm)
	}
	return true
}

// RefineAll fully refines the model (down to the kernel level) and returns
// the number of nodes read. Useful for exact (non-anytime) classification
// and for tests comparing against direct kernel density computation.
func (c *Cursor) RefineAll() int {
	start := c.reads
	for c.Refine() {
	}
	return c.reads - start
}
