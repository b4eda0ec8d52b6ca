// Package stream simulates the data-stream environments that motivate
// anytime classification (Section 1): constant streams with fixed
// inter-arrival times and varying streams (Poisson arrivals)
// where the time available per object — and hence the node budget of the
// anytime classifier — fluctuates. It also provides an online runner that
// interleaves classification with incremental learning from labelled
// objects, the "learn incrementally and online" requirement of the paper.
package stream

import (
	"fmt"
	"math"
	"math/rand"

	"bayestree/internal/core"
)

// Arrivals generates inter-arrival gaps in abstract time units (seconds).
type Arrivals interface {
	// Next returns the gap before the next object arrives.
	Next(rng *rand.Rand) float64
	// Name identifies the process in reports.
	Name() string
}

// Constant models a constant stream: every object arrives Interval apart.
type Constant struct{ Interval float64 }

// Next implements Arrivals.
func (c Constant) Next(*rand.Rand) float64 { return c.Interval }

// Name implements Arrivals.
func (Constant) Name() string { return "constant" }

// Poisson models a varying stream with exponential gaps of the given mean
// rate (objects per second).
type Poisson struct{ Rate float64 }

// Next implements Arrivals.
func (p Poisson) Next(rng *rand.Rand) float64 {
	if p.Rate <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / p.Rate
}

// Name implements Arrivals.
func (Poisson) Name() string { return "poisson" }

// Budgeter converts the time available for an object into a node budget.
type Budgeter struct {
	// NodesPerSecond is the emulated node processing rate.
	NodesPerSecond float64
	// MaxNodes caps the budget (0 = no cap).
	MaxNodes int
}

// Budget returns the node budget for a gap of the given length. A gap
// too short for one read gets 0: the level-0 model answers.
func (b Budgeter) Budget(gap float64) int {
	if math.IsInf(gap, 1) {
		if b.MaxNodes > 0 {
			return b.MaxNodes
		}
		return 1 << 20
	}
	n := max(0, int(gap*b.NodesPerSecond))
	if b.MaxNodes > 0 && n > b.MaxNodes {
		n = b.MaxNodes
	}
	return n
}

// Item is one stream element: an observation, optionally labelled (in
// monitoring applications an expert sporadically labels the current
// status, providing online training data).
type Item struct {
	X       []float64
	Label   int
	Labeled bool
}

// Result summarises a stream run.
type Result struct {
	Processed   int
	Classified  int
	Correct     int
	Learned     int
	TotalNodes  int
	MinBudget   int
	MaxBudget   int
	MeanBudget  float64
	Accuracy    float64
	BudgetHist  map[int]int
	Predictions []int
}

// Run feeds the items through the anytime classifier under the arrival
// process: each object is classified with the node budget implied by the
// gap to the next arrival; labelled objects are additionally learned
// online. The classifier must already cover every label that occurs.
// It is RunBatch at window 1, where every prediction has seen every
// earlier label.
func Run(clf *core.Classifier, items []Item, arrivals Arrivals, budgeter Budgeter, seed int64) (*Result, error) {
	return RunBatch(clf, items, arrivals, budgeter, seed, 1, 1)
}

// Engine is the classification-and-learning surface RunBatch drives: a
// batch anytime classifier with per-object budgets plus online learning.
// *core.Classifier implements it directly; the serving subsystem's
// sharded server implements it too, so the same stream runner can feed
// a live server for ingest-while-serving. Durability is the engine's
// concern, not the stream's: when the serving engine runs with a
// write-ahead log, every Learn/ingest this runner drives is logged and
// crash-recoverable with no change here — the WAL is transparent to
// the streaming layer.
type Engine interface {
	// ClassifyBatchBudgets classifies xs[i] with budgets[i] node reads
	// using a pool of workers, returning predictions in input order.
	ClassifyBatchBudgets(xs [][]float64, budgets []int, workers int) ([]int, error)
	// Learn absorbs one labelled observation online.
	Learn(x []float64, label int) error
}

// DecayAdvancer is the optional maintenance surface of an engine that
// forgets: one call advances the model's logical decay clock by one
// epoch and sweeps faded mass. *core.Classifier and the serving
// subsystem's server both implement it.
type DecayAdvancer interface {
	AdvanceDecay() core.SweepStats
}

// WithDecayEvery adapts stream position to logical decay time: the
// returned engine advances the underlying engine's decay epoch once
// per n learned (labelled) observations, so a drifting stream fed
// through RunBatch fades old concepts at a rate proportional to the
// stream itself. Engines without decay maintenance, or n ≤ 0, pass
// through unchanged. The wrapper is not safe for concurrent Learn
// calls — the RunBatch contract already learns sequentially.
func WithDecayEvery(e Engine, n int) Engine {
	da, ok := e.(DecayAdvancer)
	if !ok || n <= 0 {
		return e
	}
	return &decayEvery{engine: e, da: da, n: n}
}

type decayEvery struct {
	engine Engine
	da     DecayAdvancer
	n      int
	count  int
}

// ClassifyBatchBudgets implements Engine by delegation.
func (d *decayEvery) ClassifyBatchBudgets(xs [][]float64, budgets []int, workers int) ([]int, error) {
	return d.engine.ClassifyBatchBudgets(xs, budgets, workers)
}

// Learn implements Engine, ticking the decay clock every n
// observations.
func (d *decayEvery) Learn(x []float64, label int) error {
	if err := d.engine.Learn(x, label); err != nil {
		return err
	}
	d.count++
	if d.count >= d.n {
		d.count = 0
		d.da.AdvanceDecay()
	}
	return nil
}

// RunBatch feeds the items through the engine under the arrival process
// in windows of the given size: every object draws the gap to the next
// arrival and with it its node budget, each window is classified in
// parallel by the engine's batch path with those per-object budgets,
// then the window's labelled objects are learned sequentially in arrival
// order. window ≤ 1 is the strictly sequential online run (Run); larger
// windows trade label freshness within one window for parallel
// throughput, since predictions inside a window do not yet see that
// window's labels.
func RunBatch(clf Engine, items []Item, arrivals Arrivals, budgeter Budgeter, seed int64, window, workers int) (*Result, error) {
	// A typed-nil *core.Classifier (what Run(nil, …) hands over) slips
	// past the interface nil check.
	if c, ok := clf.(*core.Classifier); clf == nil || ok && c == nil {
		return nil, fmt.Errorf("stream: nil classifier")
	}
	if window < 1 {
		window = 1
	}
	rng := rand.New(rand.NewSource(seed))
	res := &Result{BudgetHist: make(map[int]int), MinBudget: math.MaxInt32}
	var budgetSum float64
	xs := make([][]float64, 0, window)
	budgets := make([]int, 0, window)
	for start := 0; start < len(items); start += window {
		end := start + window
		if end > len(items) {
			end = len(items)
		}
		xs = xs[:0]
		budgets = budgets[:0]
		for _, it := range items[start:end] {
			xs = append(xs, it.X)
			budgets = append(budgets, budgeter.Budget(arrivals.Next(rng)))
		}
		preds, err := clf.ClassifyBatchBudgets(xs, budgets, workers)
		if err != nil {
			return nil, fmt.Errorf("stream: batch classification: %w", err)
		}
		for j, it := range items[start:end] {
			budget := budgets[j]
			res.Predictions = append(res.Predictions, preds[j])
			res.Processed++
			res.Classified++
			res.TotalNodes += budget
			budgetSum += float64(budget)
			res.BudgetHist[bucket(budget)]++
			if budget < res.MinBudget {
				res.MinBudget = budget
			}
			if budget > res.MaxBudget {
				res.MaxBudget = budget
			}
			if it.Labeled {
				if preds[j] == it.Label {
					res.Correct++
				}
				if err := clf.Learn(it.X, it.Label); err != nil {
					return nil, fmt.Errorf("stream: online learning: %w", err)
				}
				res.Learned++
			}
		}
	}
	if res.Learned > 0 {
		res.Accuracy = float64(res.Correct) / float64(res.Learned)
	}
	if res.MinBudget == math.MaxInt32 {
		res.MinBudget = 0
	}
	if res.Processed > 0 {
		res.MeanBudget = budgetSum / float64(res.Processed)
	}
	return res, nil
}

// bucket rounds budgets into coarse histogram bins (0,1,2,5,10,20,50,...).
func bucket(b int) int {
	switch {
	case b <= 2:
		return b
	case b <= 5:
		return 5
	case b <= 10:
		return 10
	case b <= 20:
		return 20
	case b <= 50:
		return 50
	case b <= 100:
		return 100
	default:
		return 1000
	}
}
