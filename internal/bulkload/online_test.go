package bulkload

import (
	"math"
	"math/rand"
	"testing"

	"bayestree/internal/core"
)

// The paper's deployment combines both construction modes: bulk load the
// initial training window, then learn incrementally from the stream.
// Every loader's tree must accept subsequent insertions without
// violating invariants — including the unbalanced EMTopDown trees.
func TestBulkLoadThenIncrementalInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	initial := randomPoints(rng, 200, 3)
	stream := randomPoints(rng, 300, 3)
	for _, loader := range All() {
		tree, err := loader.Build(initial, testConfig(3), 0)
		if err != nil {
			t.Fatalf("%s: %v", loader.Name(), err)
		}
		for i, p := range stream {
			if err := tree.Insert(p, 0); err != nil {
				t.Fatalf("%s: stream insert %d: %v", loader.Name(), i, err)
			}
		}
		if tree.Len() != 500 {
			t.Fatalf("%s: Len = %d", loader.Name(), tree.Len())
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: invariants after mixed construction: %v", loader.Name(), err)
		}
		// Queries over the mixed tree remain exact.
		if ld := fullDensity(t, tree, stream[0]); math.IsNaN(ld) || math.IsInf(ld, 1) {
			t.Fatalf("%s: degenerate density %v", loader.Name(), ld)
		}
	}
}

// Goldberger's post-processing fallback path: adversarial group-size
// interactions (heavy duplicates at the capacity boundary) must still
// produce a legal tree via the z-curve chunking fallback.
func TestGoldbergerAdversarialSizes(t *testing.T) {
	var points [][]float64
	// Two tight far-apart blobs plus scattered singles: regrouping tends
	// to produce one huge and many tiny groups.
	for i := 0; i < 60; i++ {
		points = append(points, []float64{0.001 * float64(i%3), 0})
	}
	for i := 0; i < 60; i++ {
		points = append(points, []float64{10 + 0.001*float64(i%3), 10})
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 17; i++ {
		points = append(points, []float64{rng.Float64() * 20, rng.Float64() * 20})
	}
	tree, err := mustLoader("goldberger").Build(points, testConfig(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if tree.Len() != len(points) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(points))
	}
}

// Loaders must not retain references to the caller's point slices.
func TestLoadersCopyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	points := randomPoints(rng, 60, 2)
	for _, loader := range All() {
		tree, err := loader.Build(points, testConfig(2), 0)
		if err != nil {
			t.Fatalf("%s: %v", loader.Name(), err)
		}
		before := sumFirstCoord(tree)
		for _, p := range points {
			p[0] = 999
		}
		after := sumFirstCoord(tree)
		// Restore for the next loader.
		for i, p := range points {
			p[0] = before / float64(len(points)) // irrelevant exact value
			_ = i
		}
		points = randomPoints(rng, 60, 2)
		if before != after {
			t.Fatalf("%s: tree aliases caller's data", loader.Name())
		}
	}
}

func sumFirstCoord(tree *core.MultiTree) float64 {
	var s float64
	var walk func(n *core.MultiNode)
	walk = func(n *core.MultiNode) {
		if n.IsLeaf() {
			for _, p := range n.Points() {
				s += p.X[0]
			}
			return
		}
		for _, e := range n.Entries() {
			walk(e.Child)
		}
	}
	walk(tree.Root())
	return s
}
