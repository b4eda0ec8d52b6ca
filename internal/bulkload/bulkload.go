// Package bulkload implements the bulk-loading strategies of Section 3 of
// the paper, all producing Bayes trees over one training population:
//
//   - iterative — the baseline ("Iterativ" in the figures): R*-style
//     incremental insertion, one observation at a time, as in [16].
//   - hilbert, zcurve — traditional R-tree bottom-up packing in
//     space-filling-curve order (curve.go).
//   - str — sort-tile-recursive packing [14].
//   - goldberger — statistical bottom-up construction that reduces the
//     mixture of one level to the next coarser level by regroup/refit
//     under the KL-based mixture distance [10] (mixture.go, reduce.go).
//   - vsample — the alternative statistical reduction of [21], which the
//     paper also adapted (and found weaker) (vsample.go).
//   - emtopdown — recursive top-down EM clustering of the observations,
//     the strategy the paper found best throughout (em.go).
//
// Every parameter of the strategies and the algorithms under them is a
// constant; only the tree configuration varies per build.
package bulkload

import (
	"fmt"

	"bayestree/internal/core"
	"bayestree/internal/stats"
)

// Loader builds a Bayes tree from a training population.
type Loader interface {
	// Name identifies the strategy in reports and flags ("emtopdown",
	// "hilbert", "zcurve", "str", "goldberger", "vsample", "iterative").
	Name() string
	// Build constructs the one-class tree of the given class label over
	// the observations with the given structural configuration.
	Build(points [][]float64, cfg core.Config, label int) (*core.MultiTree, error)
}

// loader is a registered strategy: its report name and its build.
type loader struct {
	name  string
	build func(points [][]float64, cfg core.Config, label int) (*core.MultiTree, error)
}

// Name implements Loader.
func (l loader) Name() string { return l.name }

// Build implements Loader.
func (l loader) Build(points [][]float64, cfg core.Config, label int) (*core.MultiTree, error) {
	return l.build(points, cfg, label)
}

// loaders is the registry, in canonical report order.
var loaders = []loader{
	{"emtopdown", buildEMTopDown},
	{"hilbert", func(points [][]float64, cfg core.Config, label int) (*core.MultiTree, error) {
		return curveBuild(points, cfg, label, hilbertKey)
	}},
	{"goldberger", func(points [][]float64, cfg core.Config, label int) (*core.MultiTree, error) {
		return statisticalBuild(points, cfg, label, reduce)
	}},
	{"iterative", buildIterative},
	{"zcurve", func(points [][]float64, cfg core.Config, label int) (*core.MultiTree, error) {
		return curveBuild(points, cfg, label, zKey)
	}},
	{"str", buildSTR},
	{"vsample", func(points [][]float64, cfg core.Config, label int) (*core.MultiTree, error) {
		return statisticalBuild(points, cfg, label, virtualSample)
	}},
}

// aliases are the other spellings ByName accepts: the paper's
// "Iterativ", and short or long forms.
var aliases = map[string]string{"iterativ": "iterative", "z": "zcurve", "virtualsampling": "vsample", "em": "emtopdown"}

// ByName returns the loader registered under name.
func ByName(name string) (Loader, bool) {
	if canonical, ok := aliases[name]; ok {
		name = canonical
	}
	for _, l := range loaders {
		if l.name == name {
			return l, true
		}
	}
	return nil, false
}

// Names lists the registered loader names in canonical report order.
func Names() []string {
	out := make([]string, len(loaders))
	for i, l := range loaders {
		out[i] = l.name
	}
	return out
}

// All returns one loader per strategy, in Names order.
func All() []Loader {
	out := make([]Loader, len(loaders))
	for i, l := range loaders {
		out[i] = l
	}
	return out
}

// buildIterative is the paper's baseline: build by repeated R*
// insertion (Section 2.2 / [16]).
func buildIterative(points [][]float64, cfg core.Config, label int) (*core.MultiTree, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("bulkload: no observations")
	}
	return core.BuildRStar(cfg, label, points)
}

// validatePoints performs the shared input checks.
func validatePoints(points [][]float64, cfg core.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(points) == 0 {
		return fmt.Errorf("bulkload: no observations")
	}
	for i, p := range points {
		if len(p) != cfg.Dim {
			return fmt.Errorf("bulkload: observation %d has dim %d, want %d", i, len(p), cfg.Dim)
		}
		if err := stats.CheckPoint(p); err != nil {
			return fmt.Errorf("bulkload: observation %d: %w", i, err)
		}
	}
	return nil
}

// chunkSizes splits n items into groups within [minSize, maxSize], as
// evenly as possible, preferring the target fill. It returns nil when n
// cannot be split legally (n < minSize yields a single undersized group,
// which callers may accept for roots).
func chunkSizes(n, minSize, maxSize, target int) []int {
	if target > maxSize {
		target = maxSize
	}
	if target < minSize {
		target = minSize
	}
	if n <= maxSize {
		return []int{n}
	}
	groups := (n + target - 1) / target
	for {
		base := n / groups
		if base >= minSize {
			break
		}
		groups--
		if groups <= 1 {
			groups = 1
			break
		}
	}
	sizes := make([]int, groups)
	base := n / groups
	rem := n % groups
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	// A group may exceed maxSize when min-fill forced few groups; rebalance
	// by adding groups while all stay ≥ minSize.
	for sizes[0] > maxSize {
		groups++
		base = n / groups
		if base < minSize {
			break // accept oversize; caller splits further
		}
		rem = n % groups
		sizes = make([]int, groups)
		for i := range sizes {
			sizes[i] = base
			if i < rem {
				sizes[i]++
			}
		}
	}
	return sizes
}

// orderedCopy returns the points permuted by idx.
func orderedCopy(points [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(points))
	for rank, i := range idx {
		out[rank] = points[i]
	}
	return out
}
