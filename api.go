package bayestree

import (
	"fmt"
	"io"
	"os"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/eval"
	"bayestree/internal/persist"
	"bayestree/internal/stream"
)

// Re-exported core types: see the internal/core package for full
// documentation of each.
type (
	// Config holds the Bayes tree structural parameters (dimension,
	// fanout and leaf capacities); the leaf kernel is the paper's
	// Gaussian.
	Config = core.Config
	// Classifier is the per-class-forest anytime classifier with the qbk
	// refinement strategy.
	Classifier = core.Classifier
	// ClassifierOptions select descent strategy, priority measure and the
	// qbk parameter k.
	ClassifierOptions = core.ClassifierOptions
	// Query is an in-progress anytime classification.
	Query = core.Query
	// Strategy is the tree descent order (global best, breadth- or
	// depth-first).
	Strategy = core.Strategy
	// Priority is the global-descent ordering measure.
	Priority = core.Priority
	// MultiTree is the Bayes tree: the single-tree multi-class variant
	// of Section 4.1, and with one class a class tree of the Classifier.
	MultiTree = core.MultiTree
	// MultiOptions configure the multi-class tree.
	MultiOptions = core.MultiOptions
	// DecayOptions configure exponential forgetting for evolving
	// streams: Lambda is the fade exponent of one decay step (an
	// observation inserted age steps ago weighs 2^(−λ·age), Section 4.2)
	// and MinWeight the floor below which a step forgets an observation.
	// Enable with Classifier.EnableDecay (or MultiTree.EnableDecay); each
	// AdvanceDecay is one step, the only way a classifier's time moves.
	DecayOptions = core.DecayOptions
	// SweepStats summarise what one decay step pruned.
	SweepStats = core.SweepStats
	// Dataset is a labelled vector data set.
	Dataset = dataset.Dataset
	// CSVOptions control CSV parsing.
	CSVOptions = dataset.CSVOptions
	// SyntheticSpec parameterises synthetic data generation.
	SyntheticSpec = dataset.SyntheticSpec
	// Curve is an anytime accuracy curve.
	Curve = eval.Curve
	// CurveOptions parameterise anytime accuracy measurement.
	CurveOptions = eval.CurveOptions
	// StreamItem is one stream element for the online runner.
	StreamItem = stream.Item
	// StreamResult summarises a stream run.
	StreamResult = stream.Result
	// Budgeter converts available time into node budgets.
	Budgeter = stream.Budgeter
)

// Descent strategies and priorities (Section 2.2).
const (
	DescentGlobal         = core.DescentGlobal
	DescentBFT            = core.DescentBFT
	DescentDFT            = core.DescentDFT
	PriorityProbabilistic = core.PriorityProbabilistic
	PriorityGeometric     = core.PriorityGeometric
)

// DefaultConfig returns the default tree parameters for the given
// dimensionality (an emulated 2 KiB page).
func DefaultConfig(dim int) Config { return core.DefaultConfig(dim) }

// LoadCSV reads a labelled CSV data set from disk.
func LoadCSV(path string, opts CSVOptions) (*Dataset, error) {
	return dataset.LoadCSV(path, opts)
}

// Synthetic generates a seeded synthetic data set.
func Synthetic(spec SyntheticSpec) (*Dataset, error) { return dataset.Synthetic(spec) }

// TrainOptions configure Train.
type TrainOptions struct {
	// Loader names the bulk-loading strategy: "emtopdown" (default, the
	// paper's best), "hilbert", "zcurve", "str", "goldberger", "vsample"
	// or "iterative".
	Loader string
	// Config overrides the tree parameters; nil means DefaultConfig.
	Config *Config
	// Classifier sets descent and qbk options (zero value = the paper's
	// best: global best-first descent, probabilistic priority, k = 2).
	Classifier ClassifierOptions
}

// Train bulk loads one Bayes tree per class of the data set and returns
// the anytime classifier.
func Train(ds *Dataset, opts TrainOptions) (*Classifier, error) {
	if ds == nil {
		return nil, fmt.Errorf("bayestree: nil dataset")
	}
	name := opts.Loader
	if name == "" {
		name = "emtopdown"
	}
	loader, ok := bulkload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("bayestree: unknown loader %q (have %v)", name, bulkload.Names())
	}
	cfgFn := core.DefaultConfig
	if opts.Config != nil {
		cfg := *opts.Config
		cfgFn = func(int) core.Config { return cfg }
	}
	return eval.TrainForest(ds, loader, cfgFn, opts.Classifier)
}

// AnytimeCurve measures the anytime accuracy of a bulk-loading strategy on
// a data set with k-fold cross validation — the paper's evaluation
// protocol.
func AnytimeCurve(ds *Dataset, loaderName string, opts CurveOptions) (*Curve, error) {
	loader, ok := bulkload.ByName(loaderName)
	if !ok {
		return nil, fmt.Errorf("bayestree: unknown loader %q (have %v)", loaderName, bulkload.Names())
	}
	return eval.AnytimeCurve(ds, loader, opts)
}

// RunStream feeds items through the classifier under an arrival process
// with the given mean rate (objects/second, Poisson gaps), classifying
// each with the node budget the gap allows and learning labelled items
// online.
func RunStream(clf *Classifier, items []StreamItem, rate float64, budgeter Budgeter, seed int64) (*StreamResult, error) {
	return stream.Run(clf, items, stream.Poisson{Rate: rate}, budgeter, seed)
}

// RunStreamBatch is RunStream with windowed parallel classification: each
// window of the given size is classified by a pool of workers (per-object
// budgets drawn exactly as in RunStream), then the window's labelled items
// are learned in arrival order. window ≤ 1 reproduces RunStream exactly;
// larger windows trade label freshness within a window for throughput.
func RunStreamBatch(clf *Classifier, items []StreamItem, rate float64, budgeter Budgeter, seed int64, window, workers int) (*StreamResult, error) {
	return stream.RunBatch(clf, items, stream.Poisson{Rate: rate}, budgeter, seed, window, workers)
}

// BatchClassify classifies every object of xs with the given node budget
// using a pool of workers (workers ≤ 0 = GOMAXPROCS) and returns the
// predictions in input order. Classification is read-only, so any number
// of workers may share one classifier; per-worker query state is
// pooled, making steady-state batch serving allocation-free. Use
// Classifier.Classify for single objects and this for throughput-bound
// batches. Do not Learn on the classifier while a batch is in flight.
func BatchClassify(clf *Classifier, xs [][]float64, budget, workers int) []int {
	return clf.ClassifyBatch(xs, budget, workers)
}

// Encode writes a versioned binary snapshot of the trained classifier:
// configuration, tree topology, leaf observations and every entry's
// cluster feature, with float64 values preserved bit-exactly and a
// checksum over the payload. Decode rebuilds the derived state (frozen
// Gaussians, priors) from the stored features, so the reloaded model
// classifies digit-identically to the saved one. See internal/persist
// for the format.
func Encode(w io.Writer, clf *Classifier) error { return persist.EncodeClassifier(w, clf) }

// Decode reads a classifier snapshot written by Encode (or Save). It
// rejects truncated, corrupted and incompatible-version snapshots with
// descriptive errors before building any model state.
func Decode(r io.Reader) (*Classifier, error) { return persist.DecodeClassifier(r) }

// Save writes a snapshot of the trained classifier to path, durably and
// atomically: the snapshot is written to a temporary file in the same
// directory, fsynced and renamed into place (with a directory fsync),
// so a crash mid-save leaves either the previous snapshot or the
// complete new one at path — never a torn file.
func Save(clf *Classifier, path string) error {
	err := persist.WriteFileAtomic(path, func(w io.Writer) error {
		return persist.EncodeClassifier(w, clf)
	})
	if err != nil {
		return fmt.Errorf("bayestree: save: %w", err)
	}
	return nil
}

// Load reads a classifier snapshot written by Save and warm-starts it:
// frozen per-entry caches are rebuilt from the stored cluster features,
// so the loaded classifier is immediately serving-ready and classifies
// digit-identically to the model that was saved.
func Load(path string) (*Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bayestree: load: %w", err)
	}
	defer f.Close()
	clf, err := persist.DecodeClassifier(f)
	if err != nil {
		return nil, fmt.Errorf("bayestree: load %s: %w", path, err)
	}
	return clf, nil
}

// LoaderNames lists the available bulk-loading strategies.
func LoaderNames() []string { return bulkload.Names() }
