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

// refElem is a refinable frontier element: an entry whose subtree can be
// expanded by one node read.
type refElem struct {
	logTerm float64 // log contribution to the mixture density at x
	prio    float64 // refinement priority, higher first
	child   *Node
	seq     int // FIFO tie-break for determinism
}

// before orders the max-heap: highest prio first, FIFO seq as tie-break.
func (e refElem) before(other refElem) bool {
	if e.prio != other.prio {
		return e.prio > other.prio
	}
	return e.seq < other.seq
}

type refHeap = pheap[refElem]

// Cursor is an in-progress anytime probability density query against one
// Bayes tree (Definition 3 plus the time-step refinement of Section 2.2).
// It starts from the frontier {root entry} — the coarsest complete model —
// and each Refine call reads one node, replacing a frontier entry by its
// children (or, at leaf level, by the kernel estimators of its
// observations) and updating the mixture density incrementally.
type Cursor struct {
	tree     *Cursorable
	x        []float64
	strategy Strategy
	priority Priority

	heap refHeap
	fifo []refElem
	head int
	seq  int

	acc    float64 // Σ exp(logTerm − shift) over the current frontier
	shift  float64
	reads  int
	logN   float64
	obs    []int // observed dims for missing-value queries (nil = all)
	obsBuf []int // retained backing array for obs across pooled reuses
}

// cursorPool recycles cursors — and, crucially, their heap/FIFO backing
// arrays and observed-dimension scratch — across queries. A stream serving
// one query per arrival would otherwise regrow these for every object.
var cursorPool = sync.Pool{New: func() interface{} { return new(Cursor) }}

// Cursorable carries what a cursor needs from a tree; it decouples the
// cursor from Tree so MultiTree can reuse the machinery.
type Cursorable struct {
	cfg  Config
	root Entry
	n    float64
	bw   []float64
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
	return newCursor(ct, x, strategy, priority)
}

func newCursor(ct *Cursorable, x []float64, strategy Strategy, priority Priority) *Cursor {
	c := cursorPool.Get().(*Cursor)
	c.tree = ct
	c.x = x
	c.strategy = strategy
	c.priority = priority
	c.heap = c.heap[:0]
	c.fifo = c.fifo[:0]
	c.head = 0
	c.seq = 0
	c.acc = 0
	c.shift = math.Inf(-1)
	c.reads = 0
	c.logN = math.Log(ct.n)
	c.obs, c.obsBuf = stats.ObservedDimsInto(x, c.obsBuf)
	// The level-0 model: a single Gaussian over the entire population,
	// available without reading any node.
	logTerm := ct.root.Frozen().LogPDFObs(x, c.obs) // weight n/n = 1
	c.push(refElem{logTerm: logTerm, prio: c.prioFor(&ct.root, logTerm), child: ct.root.Child})
	c.addTerm(logTerm)
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
	// Clear both queues through their full capacity: consumed FIFO
	// prefixes and popped DFT suffixes linger in the backing arrays and
	// would otherwise pin tree nodes from the pool.
	h := c.heap[:cap(c.heap)]
	clear(h)
	c.heap = h[:0]
	f := c.fifo[:cap(c.fifo)]
	clear(f)
	c.fifo = f[:0]
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

func (c *Cursor) push(e refElem) {
	e.seq = c.seq
	c.seq++
	switch c.strategy {
	case DescentGlobal:
		c.heap.push(e)
	default:
		c.fifo = append(c.fifo, e)
	}
}

func (c *Cursor) pop() (refElem, bool) {
	switch c.strategy {
	case DescentGlobal:
		if len(c.heap) == 0 {
			return refElem{}, false
		}
		return c.heap.pop(), true
	case DescentBFT:
		if c.head >= len(c.fifo) {
			return refElem{}, false
		}
		e := c.fifo[c.head]
		c.head++
		// Periodically compact the consumed prefix in place: sliding the
		// live tail down reuses the existing backing array instead of
		// allocating a fresh slice on every compaction.
		if c.head > 1024 && c.head*2 > len(c.fifo) {
			n := copy(c.fifo, c.fifo[c.head:])
			clear(c.fifo[n:]) // drop node pointers in the vacated tail
			c.fifo = c.fifo[:n]
			c.head = 0
		}
		return e, true
	default: // DescentDFT
		if len(c.fifo) <= c.head {
			return refElem{}, false
		}
		e := c.fifo[len(c.fifo)-1]
		c.fifo = c.fifo[:len(c.fifo)-1]
		return e, true
	}
}

// addTerm accumulates exp(l) into the shifted linear accumulator,
// rescaling when a dominant new term arrives.
func (c *Cursor) addTerm(l float64) {
	if math.IsInf(l, -1) {
		return
	}
	if math.IsInf(c.shift, -1) {
		c.shift = l
		c.acc = 1
		return
	}
	if l > c.shift+30 {
		c.acc *= math.Exp(c.shift - l)
		c.shift = l
	}
	c.acc += math.Exp(l - c.shift)
}

// removeTerm removes exp(l) from the accumulator, clamping tiny negative
// residues from floating-point cancellation.
func (c *Cursor) removeTerm(l float64) {
	if math.IsInf(l, -1) || math.IsInf(c.shift, -1) {
		return
	}
	c.acc -= math.Exp(l - c.shift)
	if c.acc < 0 {
		c.acc = 0
	}
}

// Exhausted reports whether the frontier is fully refined to kernels.
func (c *Cursor) Exhausted() bool {
	switch c.strategy {
	case DescentGlobal:
		return len(c.heap) == 0
	case DescentBFT:
		return c.head >= len(c.fifo)
	default:
		return len(c.fifo) <= c.head
	}
}

// NodesRead returns the number of nodes read so far.
func (c *Cursor) NodesRead() int { return c.reads }

// LogDensity returns the current log mixture density pdq(x, E) for the
// frontier E (Definition 3).
func (c *Cursor) LogDensity() float64 {
	if c.acc <= 0 {
		return math.Inf(-1)
	}
	return c.shift + math.Log(c.acc)
}

// Refine reads one more node, replacing the next frontier entry by its
// children per the descent strategy. It reports whether a node was read
// (false when the model is fully refined).
func (c *Cursor) Refine() bool {
	e, ok := c.pop()
	if !ok {
		return false
	}
	c.reads++
	c.removeTerm(e.logTerm)
	n := e.child
	if n.leaf {
		if n.weights == nil {
			for _, p := range n.points {
				logTerm := -c.logN + c.tree.kern.LogDensityObs(c.x, p, c.obs)
				c.addTerm(logTerm)
			}
		} else {
			// Decayed leaves weight each kernel by its observation's
			// faded mass (weights and logN share the reference-epoch
			// scale, so the outstanding decay factor cancels).
			for i, p := range n.points {
				logTerm := math.Log(n.weights[i]) - c.logN + c.tree.kern.LogDensityObs(c.x, p, c.obs)
				c.addTerm(logTerm)
			}
		}
		return true
	}
	for i := range n.entries {
		en := &n.entries[i]
		f := en.Frozen()
		logTerm := f.LogN - c.logN + f.LogPDFObs(c.x, c.obs)
		c.push(refElem{logTerm: logTerm, prio: c.prioFor(en, logTerm), child: en.Child})
		c.addTerm(logTerm)
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
