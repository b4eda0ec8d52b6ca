package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements parallel batch classification. Anytime
// classification is read-only against the trees and the anytime contract
// is per object — one budget, one descent, an answer after any node
// read — so a batch is a pool of solo classifications sharing one
// model: each worker reuses pooled queries, so steady-state batch
// serving allocates only the result slice. (Advancing a batch's
// queries together to share cache lines was measured slower than this
// pool: ARCHITECTURE.md, "A batch is a pool of solo queries".)

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// fed by an atomic counter — cheap dynamic balancing: anytime queries
// with equal budgets still vary in cost with tree shape. workers ≤ 0
// uses GOMAXPROCS; one worker (or n ≤ 1) runs on the caller's goroutine.
// It returns when every call has. This is the one worker pool every
// batch path in the repo shares.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ClassifyBatch classifies every object of xs with the given node budget
// (negative = until fully refined) using a worker pool and returns the
// predictions in input order. workers ≤ 0 uses GOMAXPROCS. The classifier
// must not be mutated (Learn) while a batch is in flight.
func (c *Classifier) ClassifyBatch(xs [][]float64, budget, workers int) []int {
	preds := make([]int, len(xs))
	ForEach(len(xs), workers, func(i int) { preds[i] = c.Classify(xs[i], budget) })
	return preds
}

// ClassifyBatchBudgets classifies xs[i] with budgets[i] node reads — the
// batch form a stream server needs, where every object's budget is set by
// its own inter-arrival gap.
func (c *Classifier) ClassifyBatchBudgets(xs [][]float64, budgets []int, workers int) ([]int, error) {
	if len(budgets) != len(xs) {
		return nil, fmt.Errorf("core: %d budgets for %d objects", len(budgets), len(xs))
	}
	preds := make([]int, len(xs))
	ForEach(len(xs), workers, func(i int) { preds[i] = c.Classify(xs[i], budgets[i]) })
	return preds, nil
}
