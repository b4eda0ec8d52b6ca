// Package core implements the Bayes tree, the paper's primary
// contribution: a balanced R*-tree-like index whose inner entries store
// cluster features (n, LS, SS) so that every tree level — and every
// "frontier" of mixed levels — forms a complete Gaussian mixture model of
// the data (Definitions 1–3). On top of the index the package provides
// anytime Bayesian classification: probability density queries that refine
// one node per time step under interruptible budgets, the three descent
// strategies evaluated in the paper (breadth-first, depth-first, global
// best-first with geometric or probabilistic priorities) and the qbk
// class-refinement strategy for per-class tree ensembles. There is one
// tree type, the MultiTree: with one class it is a class tree of the
// per-class forest (Classifier), with all classes the single-tree
// multi-class variant sketched in Section 4.1.
package core

import "fmt"

// Config are the structural parameters of Definition 2: inner nodes hold
// between MinFanout and MaxFanout entries (m, M), leaves hold between
// MinLeaf and MaxLeaf observations (l, L). The original system derived M
// and L from a disk page size; here they are explicit so experiments can
// sweep them. DefaultConfig emulates the paper's 2 KiB pages. The leaf
// kernel is not a setting: it is the paper's Gaussian (internal/kernels).
type Config struct {
	// Dim is the dimensionality of the indexed observations.
	Dim int
	// MinFanout (m) and MaxFanout (M) bound inner-node entry counts.
	MinFanout, MaxFanout int
	// MinLeaf (l) and MaxLeaf (L) bound leaf observation counts.
	MinLeaf, MaxLeaf int
}

// DefaultConfig returns the parameterisation used by the experiments: an
// emulated 2 KiB page. An inner entry stores an MBR (2d floats), a cluster
// feature (2d+1 floats) and a pointer, so M = ⌊2048 / ((4d+2)·8)⌋ clamped
// to [4, 32]; a leaf observation stores d floats, so L = ⌊2048 / (8d)⌋
// clamped to [8, 64]. Minimums are 40 % of the maxima, as in the R*-tree.
func DefaultConfig(dim int) Config {
	entryBytes := (4*dim + 2) * 8
	m := 2048 / entryBytes
	if m < 4 {
		m = 4
	}
	if m > 32 {
		m = 32
	}
	l := 2048 / (8 * dim)
	if l < 8 {
		l = 8
	}
	if l > 64 {
		l = 64
	}
	return Config{
		Dim:       dim,
		MinFanout: max(2, (m*2)/5),
		MaxFanout: m,
		MinLeaf:   max(2, (l*2)/5),
		MaxLeaf:   l,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Dim < 1 {
		return fmt.Errorf("core: Dim must be ≥ 1, got %d", c.Dim)
	}
	if c.MaxFanout < 2 {
		return fmt.Errorf("core: MaxFanout must be ≥ 2, got %d", c.MaxFanout)
	}
	if c.MinFanout < 1 || c.MinFanout > c.MaxFanout/2 {
		return fmt.Errorf("core: MinFanout must be in [1, MaxFanout/2], got %d (MaxFanout %d)", c.MinFanout, c.MaxFanout)
	}
	if c.MaxLeaf < 2 {
		return fmt.Errorf("core: MaxLeaf must be ≥ 2, got %d", c.MaxLeaf)
	}
	if c.MinLeaf < 1 || c.MinLeaf > c.MaxLeaf/2 {
		return fmt.Errorf("core: MinLeaf must be in [1, MaxLeaf/2], got %d (MaxLeaf %d)", c.MinLeaf, c.MaxLeaf)
	}
	return nil
}
