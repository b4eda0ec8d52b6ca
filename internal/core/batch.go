package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements parallel batch classification. Anytime
// classification is read-only against the per-class trees, so a batch of
// objects can be classified by a pool of workers sharing one classifier;
// each worker reuses pooled queries and cursors, so steady-state batch
// serving allocates only the result slice.

// ClassifyBatch classifies every object of xs with the given node budget
// (negative = until fully refined) using a worker pool and returns the
// predictions in input order. workers ≤ 0 uses GOMAXPROCS. The classifier
// must not be mutated (Learn) while a batch is in flight.
func (c *Classifier) ClassifyBatch(xs [][]float64, budget, workers int) []int {
	preds := make([]int, len(xs))
	c.classifyInto(xs, func(int) int { return budget }, workers, preds)
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
	c.classifyInto(xs, func(i int) int { return budgets[i] }, workers, preds)
	return preds, nil
}

// classifyInto distributes the batch over workers via an atomic work
// counter (cheap dynamic balancing: anytime queries with equal budgets
// still vary in cost with tree shape).
func (c *Classifier) classifyInto(xs [][]float64, budget func(int) int, workers int, preds []int) {
	workers = clampWorkers(workers, len(xs))
	if workers <= 1 {
		for i, x := range xs {
			preds[i] = c.Classify(x, budget(i))
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
				if i >= len(xs) {
					return
				}
				preds[i] = c.Classify(xs[i], budget(i))
			}
		}()
	}
	wg.Wait()
}

// ClassifyBatch classifies every object of xs against the multi-class tree
// with the given node budget using a worker pool, in input order. The tree
// must not be mutated while the batch is in flight. Built on ScoreBatch,
// so same-chunk queries share node visits through the SoA mirror.
func (t *MultiTree) ClassifyBatch(xs [][]float64, opts ClassifierOptions, budget, workers int) ([]int, error) {
	budgets := make([]int, len(xs))
	for i := range budgets {
		budgets[i] = budget
	}
	scores, _, err := t.ScoreBatch(xs, opts, budgets, workers)
	if err != nil {
		return nil, err
	}
	preds := make([]int, len(xs))
	for i, s := range scores {
		best := 0
		for c := 1; c < len(s); c++ {
			if s[c] > s[best] {
				best = c
			}
		}
		preds[i] = t.labels[best]
	}
	return preds, nil
}

// ScoreBatch runs one anytime classification per object and returns the
// per-class log posterior scores (Scores order) and nodes read for each,
// with budgets[i] node reads for xs[i] (negative = until exhausted).
//
// The batch is cut into contiguous chunks, one per worker, and each
// chunk's queries advance in lockstep rounds: every live query pops its
// own next frontier element (so its pop sequence — and therefore its
// scores — is bitwise identical to running it alone), and the round's
// visits are sorted by mirror node index before consumption, so queries
// landing on the same node block hit it back-to-back while it is
// cache-hot — the fused-sweep amortisation of the memory traffic that
// dominates solo descent. The tree must not be mutated while the batch
// is in flight.
func (t *MultiTree) ScoreBatch(xs [][]float64, opts ClassifierOptions, budgets []int, workers int) ([][]float64, []int, error) {
	if t.size == 0 {
		return nil, nil, fmt.Errorf("core: batch against empty multi tree")
	}
	if len(budgets) != len(xs) {
		return nil, nil, fmt.Errorf("core: %d budgets for %d objects", len(budgets), len(xs))
	}
	scores := make([][]float64, len(xs))
	reads := make([]int, len(xs))
	workers = clampWorkers(workers, len(xs))
	if workers <= 1 {
		if err := t.scoreChunk(xs, opts, budgets, scores, reads); err != nil {
			return nil, nil, err
		}
		return scores, reads, nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := (len(xs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(xs) {
			hi = len(xs)
		}
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = t.scoreChunk(xs[lo:hi], opts, budgets[lo:hi], scores[lo:hi], reads[lo:hi])
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return scores, reads, nil
}

// batchVisit pairs a live query with the frontier element it popped this
// round.
type batchVisit struct {
	q  *MultiQuery
	el mElem
}

// scoreChunk advances one worker's chunk of queries in fused lockstep
// rounds (see ScoreBatch).
func (t *MultiTree) scoreChunk(xs [][]float64, opts ClassifierOptions, budgets []int, scores [][]float64, reads []int) error {
	live := make([]*MultiQuery, len(xs))
	for i, x := range xs {
		q, err := t.NewQuery(x, opts)
		if err != nil {
			for _, p := range live[:i] {
				p.Close()
			}
			return err
		}
		live[i] = q
	}
	finish := func(i int) {
		q := live[i]
		scores[i] = q.Scores()
		reads[i] = q.NodesRead()
		q.Close()
		live[i] = nil
	}
	round := make([]batchVisit, 0, len(xs))
	for {
		round = round[:0]
		remaining := false
		for i, q := range live {
			if q == nil {
				continue
			}
			if budgets[i] >= 0 && q.reads >= budgets[i] {
				finish(i)
				continue
			}
			el, ok := q.pop()
			if !ok {
				finish(i)
				continue
			}
			remaining = true
			round = append(round, batchVisit{q: q, el: el})
		}
		if !remaining {
			return nil
		}
		// Group same-node visits so a mirror block scored for one query is
		// still cache-hot for the next. Each query's own pop order is
		// untouched — only the interleaving across queries changes, which
		// cannot affect any single query's arithmetic.
		if len(round) > 1 {
			sort.Slice(round, func(a, b int) bool { return round[a].el.node < round[b].el.node })
		}
		for _, v := range round {
			v.q.consume(v.el)
		}
	}
}

func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}
