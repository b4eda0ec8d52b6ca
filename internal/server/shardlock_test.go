package server

import (
	"math"
	"testing"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
)

// TestConcurrentClassifyReadsFreeShardsFirst holds a classify to its
// lock discipline: each shard's read lock once, free shards first. With
// shard j write-locked, as an insert holds it, the classify reads every
// other shard — each one's first query builds its mirror, which is what
// the test watches for — before it waits for j; once j is released, its
// label, score bits and node reads are the unlocked server's. A classify
// that read-locks every shard for sizes first, or waits for each in
// index order, builds no mirror past j while j is held.
func TestConcurrentClassifyReadsFreeShardsFirst(t *testing.T) {
	d, err := dataset.Pendigits(0.2)
	if err != nil {
		t.Fatal(err)
	}
	d.Shuffle(1)
	const shards, train, budget = 4, 2000, 32
	build := func() *Server {
		trees := make([]*core.MultiTree, shards)
		for i := range trees {
			if trees[i], err = core.NewMultiTree(core.DefaultConfig(d.Dim()), d.Classes(), core.MultiOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < train; i++ {
			if err := trees[RouteShard(d.X[i], shards)].Insert(d.X[i], d.Y[i]); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(trees, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mirrored := func(s *Server, i int) bool {
		rebuilds, _, _ := s.shards[i].tree.SoACounters()
		return rebuilds > 0
	}
	x := d.X[train]
	want, err := build().Classify(x, budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, held := range []int{0, 2} {
		s := build()
		s.shards[held].mu.Lock()
		type answer struct {
			res Result
			err error
		}
		done := make(chan answer, 1)
		go func() {
			res, err := s.Classify(x, budget)
			done <- answer{res, err}
		}()
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < shards; i++ {
			for i != held && !mirrored(s, i) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
		for i := 0; i < shards; i++ {
			if i != held && !mirrored(s, i) {
				t.Errorf("shard %d write-locked: the classify did not read shard %d while it waited", held, i)
			}
		}
		select {
		case a := <-done:
			t.Errorf("shard %d write-locked: the classify answered (%v) without reading it", held, a.err)
		default:
		}
		if mirrored(s, held) {
			t.Errorf("shard %d write-locked: the classify read it under the writer", held)
		}
		s.shards[held].mu.Unlock()
		a := <-done
		if a.err != nil {
			t.Fatal(a.err)
		}
		got := a.res
		if got.Label != want.Label || got.NodesRead != want.NodesRead || math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
			t.Errorf("shard %d write-locked: label %d, %d nodes read, weight %v; unlocked: %d, %d, %v",
				held, got.Label, got.NodesRead, got.Weight, want.Label, want.NodesRead, want.Weight)
		}
		for c := range want.Scores {
			if math.Float64bits(got.Scores[c]) != math.Float64bits(want.Scores[c]) {
				t.Errorf("shard %d write-locked: class %d scores %v, unlocked %v", held, c, got.Scores[c], want.Scores[c])
			}
		}
	}
}
