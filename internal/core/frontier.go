package core

import (
	"math"

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
type item struct {
	prio    float64 // refinement priority, higher first
	seq     int     // push order: FIFO tie-break for determinism
	payload multiRef
}

// before orders the max-heap: highest prio first, FIFO seq as tie-break.
func (e *item) before(other *item) bool {
	if e.prio != other.prio {
		return e.prio > other.prio
	}
	return e.seq < other.seq
}

// frontier holds the refinable elements of one anytime query in the
// order its descent strategy consumes them: a max-heap for
// DescentGlobal, a queue for DescentBFT, a stack for DescentDFT.
// MultiQuery and the test oracle both descend through it.
type frontier struct {
	strategy Strategy
	heap     pheap
	fifo     []item
	head     int // consumed prefix of fifo (DescentBFT)
	seq      int
}

// reset empties the frontier for a query of the given strategy, keeping
// the backing arrays.
func (f *frontier) reset(s Strategy) {
	f.strategy = s
	f.heap, f.fifo = f.heap[:0], f.fifo[:0]
	f.head, f.seq = 0, 0
}

// push enqueues an element, numbered in push order, for refinement.
func (f *frontier) push(prio float64, payload multiRef) {
	e := item{prio: prio, seq: f.seq, payload: payload}
	f.seq++
	if f.strategy == DescentGlobal {
		f.heap.push(e)
	} else {
		f.fifo = append(f.fifo, e)
	}
}

// pop removes and returns the next element to refine; false when the
// frontier is exhausted.
func (f *frontier) pop() (payload multiRef, ok bool) {
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
func (f *frontier) exhausted() bool {
	if f.strategy == DescentGlobal {
		return len(f.heap) == 0
	}
	return f.head >= len(f.fifo)
}

// accumulator is a running log-sum-exp: Σ exp(l) over the terms added
// and not yet removed is sum·exp(shift). A MultiQuery keeps one per
// class.
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
		a.sum *= stats.Exp(a.shift - l)
		a.shift = l
	}
	v := stats.Exp(l - a.shift)
	a.sum += v
	return v
}

// remove removes exp(l) from the accumulator.
func (a *accumulator) remove(l float64) {
	if math.IsInf(l, -1) || math.IsInf(a.shift, -1) {
		return
	}
	a.sub(stats.Exp(l - a.shift))
}

// sub subtracts a value add returned, clamping tiny negative residues
// from floating-point cancellation.
func (a *accumulator) sub(v float64) {
	a.sum -= v
	if a.sum < 0 {
		a.sum = 0
	}
}
