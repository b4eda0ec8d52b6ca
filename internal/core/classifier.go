package core

import (
	"fmt"
	"math"
	"sync"

	"bayestree/internal/stats"
)

// DefaultK returns the paper's default for the qbk strategy. The paper
// reports k = 2 as best "on all tested data sets" (with the formula
// k = min{2, ⌊log m⌋} collapsing to 2 for every evaluated data set), so we
// return 2 clamped to the number of classes.
func DefaultK(numClasses int) int {
	if numClasses < 2 {
		return 1
	}
	return 2
}

// ClassifierOptions configure an anytime Bayes tree classifier.
type ClassifierOptions struct {
	// Strategy is the tree descent order; the paper found DescentGlobal
	// best throughout.
	Strategy Strategy
	// Priority orders global best-first descent; the paper's default is
	// the probabilistic measure.
	Priority Priority
	// K is the qbk parameter: the number of currently most probable
	// classes refined in turns. Zero means DefaultK.
	K int
}

// Classifier is the paper's anytime Bayesian classifier: one Bayes tree
// per class, a-priori probabilities estimated from class frequencies, and
// the qbk improvement strategy deciding which class may refine its model
// at each time step (Section 2.2). Classification at any interruption
// point returns argmax P(c)·p(x|c) over the classes' current mixed-
// granularity models. Each class tree is a one-class MultiTree, and a
// class model's refinement step is that tree's MultiQuery step.
type Classifier struct {
	labels    []int
	trees     []*MultiTree
	logPriors []float64
	opts      ClassifierOptions
	// queryPool recycles Query objects (and, through them, the per-class
	// query slots) so a stream of classifications allocates nothing per
	// object.
	queryPool sync.Pool
	// priorBuf is reusable scratch for refreshPriors, keeping the
	// per-Learn prior refresh allocation-free.
	priorBuf []float64
}

// NewClassifier builds a classifier from one-class trees, one per class;
// the class order is the trees' order and the priors are their relative
// masses. Every tree must share one dimensionality and be non-empty,
// unless it decays.
func NewClassifier(trees []*MultiTree, opts ClassifierOptions) (*Classifier, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("core: classifier without class trees")
	}
	labels := make([]int, len(trees))
	seen := make(map[int]bool, len(trees))
	for i, t := range trees {
		if t == nil || len(t.labels) != 1 {
			return nil, fmt.Errorf("core: class tree %d must hold exactly one class", i)
		}
		labels[i] = t.labels[0]
		// A decaying tree may have faded empty (a snapshot of a forest
		// holds it so); its class scores −Inf until it learns again.
		if t.Len() == 0 && !t.DecayConfig().Enabled() {
			return nil, fmt.Errorf("core: empty tree for class %d", labels[i])
		}
		if t.cfg.Dim != trees[0].cfg.Dim {
			return nil, fmt.Errorf("core: tree for class %d has dim %d, want %d", labels[i], t.cfg.Dim, trees[0].cfg.Dim)
		}
		if seen[labels[i]] {
			return nil, fmt.Errorf("core: duplicate class label %d", labels[i])
		}
		seen[labels[i]] = true
	}
	if opts.K <= 0 {
		opts.K = DefaultK(len(labels))
	}
	if opts.K > len(labels) {
		opts.K = len(labels)
	}
	c := &Classifier{
		labels:    labels,
		trees:     append([]*MultiTree(nil), trees...),
		logPriors: make([]float64, len(trees)),
		opts:      opts,
	}
	// Priors come from the trees' effective masses (Weight), which for
	// undecayed trees is exactly the count-based estimate and for
	// decayed trees (e.g. a reloaded snapshot) the decayed mass.
	c.refreshPriors()
	return c, nil
}

// Labels returns the class labels in classifier order.
func (c *Classifier) Labels() []int { return append([]int(nil), c.labels...) }

// Tree returns the one-class Bayes tree serving the given label, or nil
// if the label is unknown. Exposed for multi-step deployments that use
// the upper levels of the per-class trees for pre-classification (as in
// the HealthNet application [13]).
func (c *Classifier) Tree(label int) *MultiTree {
	for i, l := range c.labels {
		if l == label {
			return c.trees[i]
		}
	}
	return nil
}

// Learn inserts a labelled observation into its class tree incrementally
// (MultiTree.Insert) and refreshes the prior estimates — the online
// learning capability of the Bayes tree ([16], Section 1). Learning while
// queries on the same classifier are in flight is not synchronised; in a
// stream loop, learn between classifications.
func (c *Classifier) Learn(x []float64, label int) error {
	t := c.Tree(label)
	if t == nil {
		return fmt.Errorf("core: unknown class label %d", label)
	}
	if err := t.Insert(x, label); err != nil {
		return err
	}
	c.refreshPriors()
	return nil
}

// NumClasses returns the number of classes.
func (c *Classifier) NumClasses() int { return len(c.labels) }

// Options returns the classifier options in effect (after defaulting).
func (c *Classifier) Options() ClassifierOptions { return c.opts }

// Query is an in-progress anytime classification of one object: a
// MultiQuery per class tree plus the qbk turn state. It lets callers
// interleave refinement with their own deadline checks — the essence of
// anytime operation on a varying stream.
type Query struct {
	c *Classifier
	// queries holds one query per class tree, in own, or nil for a tree
	// that was empty when the query started (possible after decay
	// pruned it). own is pooled with the Query, not per class query.
	queries []*MultiQuery
	own     []MultiQuery
	// density[i] is class i's current log density, its one-class tree's
	// score (whose own prior is log 1 = 0 exactly); −Inf without a query.
	// A step refines one class, so only that class's is recomputed.
	density []float64
	turn    int
	reads   int
	// one, scoreBuf and rankBuf are reusable scratch for scores() and
	// Step(), keeping the per-step qbk bookkeeping allocation-free.
	one      [1]float64
	scoreBuf []float64
	rankBuf  []ranked
}

type ranked struct {
	idx   int
	score float64
}

// NewQuery starts an anytime classification of x. Queries are drawn from a
// per-classifier pool; call Close when done to recycle the query and its
// class queries (optional, but it makes steady-state classification
// allocation-free).
func (c *Classifier) NewQuery(x []float64) *Query {
	q, _ := c.queryPool.Get().(*Query)
	if q == nil {
		n := len(c.trees)
		q = &Query{queries: make([]*MultiQuery, n), own: make([]MultiQuery, n), density: make([]float64, n)}
	}
	q.c = c
	q.turn = 0
	q.reads = 0
	for i, t := range c.trees {
		if t.Len() > 0 {
			t.start(&q.own[i], x, c.opts)
			q.queries[i] = &q.own[i]
		}
		q.refresh(i)
	}
	return q
}

// refresh recomputes class i's log density from its query.
func (q *Query) refresh(i int) {
	q.density[i] = math.Inf(-1)
	if mq := q.queries[i]; mq != nil {
		q.density[i] = mq.scoresInto(q.one[:])[0]
	}
}

// Close releases the query, and with it its class queries, back to the
// classifier's pool. The query must not be used afterwards.
func (q *Query) Close() {
	if q == nil || q.c == nil {
		return
	}
	for i, mq := range q.queries {
		if mq != nil {
			mq.release()
			q.queries[i] = nil
		}
	}
	c := q.c
	q.c = nil
	c.queryPool.Put(q)
}

// NodesRead returns the total nodes read across all class trees.
func (q *Query) NodesRead() int { return q.reads }

// scores returns the current log posteriors (up to the shared evidence
// constant): a class's prior plus its tree's log density. The returned
// slice is the query's scratch buffer and is overwritten by the next
// call.
func (q *Query) scores() []float64 {
	if cap(q.scoreBuf) < len(q.queries) {
		q.scoreBuf = make([]float64, len(q.queries))
	}
	s := q.scoreBuf[:len(q.queries)]
	for i, d := range q.density {
		s[i] = q.c.logPriors[i] + d
	}
	return s
}

// Posteriors returns the current normalised posterior estimates P(c|x)
// under the mixed-granularity models.
func (q *Query) Posteriors() []float64 { return posteriors(q.scores()) }

// posteriors normalises log posterior scores into a new slice of
// probabilities: uniform when every class scores −Inf.
func posteriors(s []float64) []float64 {
	m := math.Inf(-1)
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	out := make([]float64, len(s))
	if math.IsInf(m, -1) {
		for i := range out {
			out[i] = 1 / float64(len(s))
		}
		return out
	}
	var z float64
	for i, v := range s {
		out[i] = math.Exp(v - m)
		z += out[i]
	}
	for i := range out {
		out[i] /= z
	}
	return out
}

// Predict returns the label with the highest posterior under the current
// models (ties resolve to the classifier-order first class).
func (q *Query) Predict() int {
	s := q.scores()
	best := 0
	for i := 1; i < len(s); i++ {
		if s[i] > s[best] {
			best = i
		}
	}
	return q.c.labels[best]
}

// Exhausted reports whether every class model is fully refined (an
// empty class tree counts as exhausted).
func (q *Query) Exhausted() bool {
	for _, mq := range q.queries {
		if mq != nil && !mq.Exhausted() {
			return false
		}
	}
	return true
}

// Step refines one node according to the qbk strategy: rank classes by
// current posterior, then give the next of the top-k (in turns) the right
// to refine. It reports whether a node was read.
func (q *Query) Step() bool {
	if cap(q.rankBuf) < len(q.queries) {
		q.rankBuf = make([]ranked, 0, len(q.queries))
	}
	rs := q.rankBuf[:0]
	ss := q.scores()
	for i, mq := range q.queries {
		if mq != nil && !mq.Exhausted() {
			rs = append(rs, ranked{idx: i, score: ss[i]})
		}
	}
	if len(rs) == 0 {
		return false
	}
	// Stable insertion sort by descending score: class counts are small,
	// and avoiding the reflection-based stable sort keeps the step
	// allocation-free.
	for a := 1; a < len(rs); a++ {
		for b := a; b > 0 && rs[b].score > rs[b-1].score; b-- {
			rs[b], rs[b-1] = rs[b-1], rs[b]
		}
	}
	k := q.c.opts.K
	if k > len(rs) {
		k = len(rs)
	}
	pick := rs[q.turn%k].idx
	q.turn++
	if !q.queries[pick].Step() {
		return false
	}
	q.refresh(pick)
	q.reads++
	return true
}

// LogEvidence returns the current anytime estimate of the data log
// density log p(x) = log Σ_c P(c)·p(x|c) under the mixed-granularity
// models — the quantity behind density-based outlier detection
// (Section 4.2 names "detection of outliers" as an extension of the
// index-based approach).
func (q *Query) LogEvidence() float64 {
	return stats.LogSumExp(q.scores())
}

// OutlierScore runs an anytime density estimate of x with the given node
// budget and returns −log p(x): higher scores mean more outlying. The
// same index serves classification and outlier detection; only the
// aggregation differs.
func (c *Classifier) OutlierScore(x []float64, budget int) float64 {
	q := c.NewQuery(x)
	for i := 0; budget < 0 || i < budget; i++ {
		if !q.Step() {
			break
		}
	}
	score := -q.LogEvidence()
	q.Close()
	return score
}

// Classify runs an anytime classification of x with a budget of node
// reads. A negative budget means "until fully refined" (the exact kernel
// Bayes classifier). It returns the final prediction.
func (c *Classifier) Classify(x []float64, budget int) int {
	q := c.NewQuery(x)
	for i := 0; budget < 0 || i < budget; i++ {
		if !q.Step() {
			break
		}
	}
	pred := q.Predict()
	q.Close()
	return pred
}

// ClassifyTrace runs an anytime classification and records the prediction
// after every node read: trace[t] is the label predicted with t nodes
// read, t = 0..budget. If the models exhaust early the last prediction is
// repeated — exactly how the paper's "accuracy after each node" curves
// are defined. A trace needs a length, so a negative budget counts as 0
// (not "until exhausted", as it does for Classify).
func (c *Classifier) ClassifyTrace(x []float64, budget int) []int {
	trace := make([]int, max(budget, 0)+1)
	q := c.NewQuery(x)
	trace[0] = q.Predict()
	for t := 1; t < len(trace); t++ {
		if q.Step() {
			trace[t] = q.Predict()
		} else {
			trace[t] = trace[t-1]
		}
	}
	q.Close()
	return trace
}
