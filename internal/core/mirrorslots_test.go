package core

import (
	"testing"

	"bayestree/internal/dataset"
)

// TestMirrorSlotsPinned pins what a class an entry does not hold costs,
// on the seeded build of TestSplitWorkPinned: 8,000 shuffled Pendigits
// points dealt round-robin over 4 DefaultConfig(16) trees, mirrors
// built. Pinned exactly are the rows of the mirrors' inner nodes and the
// class cluster features holding vectors — both one per (entry, class)
// pair with mass, 6,649 of the 9,700 pairs — and the inner rows that
// classifying the 2,992 held-out points sweeps at budgets 4, 32 and 128,
// split evenly over the trees, and the exact priorities settle computes
// for them. The mirrors' bytes are a ceiling, 1.4 % above the 2,201,056
// measured: an inner row is 2·dim + 2 floats, since a marginal takes a
// missing dimension's term from its inverse variance; rows that also
// kept log variances (3·dim + 2) took 3,106,848, and a mirror that
// copied a leaf's points and an entry's rectangle from the tree too
// took 4,608,844. A mirror or a tree that allocates, freezes or sweeps
// an absent class moves every count, and a descent that computes
// priorities eagerly moves the last.
func TestMirrorSlotsPinned(t *testing.T) {
	const (
		train, pairs, held = 8000, 6649, 2992
		maxMirrorBytes     = 2_231_000
	)
	d, err := dataset.Pendigits(1)
	if err != nil {
		t.Fatal(err)
	}
	d.Shuffle(1)
	trees := make([]*MultiTree, 4)
	for i := range trees {
		if trees[i], err = NewMultiTree(DefaultConfig(d.Dim()), d.Classes(), MultiOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < train; i++ {
		if err := trees[i%4].Insert(d.X[i], d.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	rows, vectors := 0, 0
	var bytes int64
	for _, mt := range trees {
		s := mt.mirror()
		for i := range s.nodes {
			rows += len(s.nodes[i].logN)
		}
		vectors += heldClasses(mt.root)
		bytes += s.bytes()
	}
	t.Logf("%d mirror rows, %d class vector pairs, %d mirror bytes", rows, vectors, bytes)
	if rows != pairs || vectors != pairs {
		t.Errorf("%d mirror rows and %d class vector pairs, want %d of each", rows, vectors, pairs)
	}
	if bytes > maxMirrorBytes {
		t.Errorf("the mirrors take %d bytes, want ≤ %d", bytes, maxMirrorBytes)
	}

	xs := d.X[train:]
	if len(xs) != held {
		t.Fatalf("%d held-out points, want %d", len(xs), held)
	}
	for _, tc := range []struct{ budget, swept, exact int }{{4, 239360, 0}, {32, 2552696, 110388}, {128, 9231727, 382807}} {
		swept, exact := 0, 0
		for _, x := range xs {
			for _, mt := range trees {
				q, err := mt.NewQuery(x, ClassifierOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for b := 0; b < tc.budget/len(trees) && q.Step(); b++ {
				}
				swept += q.swept
				exact += q.exact
				q.Close()
			}
		}
		t.Logf("budget %d: %d inner rows swept, %.1f per classification; %d exact priorities, %.1f per classification",
			tc.budget, swept, float64(swept)/held, exact, float64(exact)/held)
		if swept != tc.swept {
			t.Errorf("budget %d: %d inner rows swept, want %d", tc.budget, swept, tc.swept)
		}
		if exact != tc.exact {
			t.Errorf("budget %d: %d exact priorities, want %d", tc.budget, exact, tc.exact)
		}
	}
}
