package core

import (
	"math"
	"testing"
)

func TestBuilderLeafValidation(t *testing.T) {
	b, err := NewBuilder(smallConfig(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Leaf(nil); err == nil {
		t.Errorf("empty leaf accepted")
	}
	tooMany := make([][]float64, 7) // MaxLeaf = 6
	for i := range tooMany {
		tooMany[i] = []float64{0, 0}
	}
	if _, err := b.Leaf(tooMany); err == nil {
		t.Errorf("oversize leaf accepted")
	}
	if _, err := b.Leaf([][]float64{{1}}); err == nil {
		t.Errorf("wrong-dim observation accepted")
	}
	if _, err := b.Leaf([][]float64{{math.NaN(), 0}}); err == nil {
		t.Errorf("NaN observation accepted")
	}
}

func TestBuilderLeafCopies(t *testing.T) {
	b, _ := NewBuilder(smallConfig(2), 7)
	p := []float64{1, 2}
	leaf, err := b.Leaf([][]float64{p})
	if err != nil {
		t.Fatal(err)
	}
	p[0] = 99
	if got := leaf.Points()[0]; got.X[0] != 1 || got.Label != 7 {
		t.Errorf("builder leaf holds %+v, want a copy of the point labelled 7", got)
	}
}

func TestBuilderInnerValidation(t *testing.T) {
	b, _ := NewBuilder(smallConfig(2), 0)
	if _, err := b.Inner(nil); err == nil {
		t.Errorf("inner without children accepted")
	}
	leaves := make([]*MultiNode, 6) // MaxFanout = 5
	for i := range leaves {
		l, err := b.Leaf([][]float64{{float64(i), 0}, {float64(i), 1}})
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = l
	}
	if _, err := b.Inner(leaves); err == nil {
		t.Errorf("oversize inner accepted")
	}
	inner, err := b.Inner(leaves[:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(inner.Entries()) != 3 {
		t.Fatalf("inner entries = %d", len(inner.Entries()))
	}
	// Entries summarise the children exactly.
	e := inner.Entries()[0]
	if e.CFs[0].N != 2 || e.Total.N != 2 {
		t.Errorf("entry CF.N = %v, Total.N = %v", e.CFs[0].N, e.Total.N)
	}
	if !e.Rect.ContainsPoint([]float64{0, 0}) || !e.Rect.ContainsPoint([]float64{0, 1}) {
		t.Errorf("entry MBR misses child points")
	}
}

func TestBuilderFinishBalanceCheck(t *testing.T) {
	b, _ := NewBuilder(smallConfig(2), 0)
	l1, _ := b.Leaf([][]float64{{0, 0}, {0, 1}})
	l2, _ := b.Leaf([][]float64{{1, 0}, {1, 1}})
	inner, _ := b.Inner([]*MultiNode{l1, l2})
	l3, _ := b.Leaf([][]float64{{2, 0}, {2, 1}})
	// root over an inner and a leaf → unbalanced.
	root, err := b.Inner([]*MultiNode{inner, l3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(root, true); err == nil {
		t.Errorf("unbalanced tree declared balanced was accepted")
	}
	tree, err := b.Finish(root, false)
	if err != nil {
		t.Fatalf("unbalanced finish: %v", err)
	}
	if tree.Len() != 6 || tree.Counts()[0] != 6 {
		t.Errorf("Len = %d, counts %v", tree.Len(), tree.Counts())
	}
	if tree.Balanced() {
		t.Errorf("tree should report unbalanced")
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("unbalanced tree invalid: %v", err)
	}
	if _, err := b.Finish(nil, false); err == nil {
		t.Errorf("nil root accepted")
	}
}

func TestBuiltTreeQueriesWork(t *testing.T) {
	b, _ := NewBuilder(smallConfig(2), 0)
	var leaves []*MultiNode
	for i := 0; i < 4; i++ {
		l, err := b.Leaf([][]float64{
			{float64(i) * 0.2, 0.1}, {float64(i) * 0.2, 0.2}, {float64(i) * 0.2, 0.3},
		})
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, l)
	}
	root, err := b.Inner(leaves)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := b.Finish(root, true)
	if err != nil {
		t.Fatal(err)
	}
	q := densityQuery(t, tree, []float64{0.2, 0.2}, DescentGlobal, PriorityProbabilistic)
	refineAll(q)
	if got := logDensity(q); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("density %v", got)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}
