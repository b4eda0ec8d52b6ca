package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestPublishedPairTracksEveryMutation holds the pair Published reads
// without a lock to Len() and Weight(), bit for bit, after every
// constructor and every mutation — on a decaying tree too, where the
// weight is not the count and an epoch or a sweep moves it alone.
// Validate checks the same pair, so each step also runs it.
func TestPublishedPairTracksEveryMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig(3)
	points := func(n int) [][]float64 {
		ps := make([][]float64, n)
		for i := range ps {
			ps[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		return ps
	}
	insert := func(mt *MultiTree, n int) error {
		for i, x := range points(n) {
			if err := mt.Insert(x, i%2); err != nil {
				return err
			}
		}
		return nil
	}
	newTree := func() (*MultiTree, error) { return NewMultiTree(cfg, []int{0, 1}, MultiOptions{}) }
	decayed := func() (*MultiTree, error) {
		mt, err := newTree()
		if err == nil {
			err = mt.EnableDecay(DecayOptions{Lambda: 0.5, MinWeight: 0.3})
		}
		if err == nil {
			err = insert(mt, 200)
		}
		return mt, err
	}
	check := func(name string, mt *MultiTree) {
		t.Helper()
		n, w := mt.Published()
		if n != mt.Len() || math.Float64bits(w) != math.Float64bits(mt.Weight()) {
			t.Errorf("%s: published (%d, %v), the tree holds (%d, %v)", name, n, w, mt.Len(), mt.Weight())
		}
	}
	for _, tc := range []struct {
		name string
		make func() (*MultiTree, error)
	}{
		{"NewMultiTree", newTree},
		{"Insert", func() (*MultiTree, error) {
			mt, err := newTree()
			if err == nil {
				err = insert(mt, 300)
			}
			return mt, err
		}},
		{"EnableDecay then Insert", decayed},
		{"AdvanceDecay", func() (*MultiTree, error) {
			mt, err := decayed()
			if err == nil {
				for range 3 {
					mt.AdvanceDecay()
				}
			}
			return mt, err
		}},
		{"AdvanceDecay pruning", func() (*MultiTree, error) {
			mt, err := decayed()
			if err == nil {
				for range 2 {
					mt.AdvanceDecay()
				}
				err = insert(mt, 200)
			}
			if err == nil {
				mt.AdvanceDecay()
				if st := mt.AdvanceDecay(); st.PointsPruned == 0 || mt.Len() == 0 {
					t.Errorf("AdvanceDecay pruned %d of 400 points: the case moves the pair only partly", st.PointsPruned)
				}
			}
			return mt, err
		}},
		{"RestoreDecayState", func() (*MultiTree, error) {
			mt, err := decayed()
			if err == nil {
				opts, epoch := mt.DecayState()
				err = mt.RestoreDecayState(opts, epoch+2)
			}
			return mt, err
		}},
		{"BuildRStar", func() (*MultiTree, error) { return BuildRStar(cfg, 7, points(300)) }},
		{"Builder.Finish", func() (*MultiTree, error) {
			b, err := NewBuilder(cfg, 7)
			if err != nil {
				return nil, err
			}
			var leaves []*MultiNode
			ps := points(120)
			for i := 0; i < len(ps); i += 30 {
				leaf, err := b.Leaf(ps[i : i+30])
				if err != nil {
					return nil, err
				}
				leaves = append(leaves, leaf)
			}
			root, err := b.Inner(leaves)
			if err != nil {
				return nil, err
			}
			return b.Finish(root, true)
		}},
		{"RebuildMultiTree and derive", func() (*MultiTree, error) {
			src, err := decayed()
			if err != nil {
				return nil, err
			}
			mt, derive, err := RebuildMultiTree(cfg, MultiOptions{}, src.Labels(), src.Root(), src.Counts(), src.Balanced())
			if err != nil {
				return nil, err
			}
			check("RebuildMultiTree before derive", mt)
			derive()
			return mt, nil
		}},
	} {
		mt, err := tc.make()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check(tc.name, mt)
		if err := mt.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
