package server

import (
	"bytes"
	"math"
	"testing"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/stats"
)

// FuzzRecordApply feeds bytes through e.wl.record — the one decode and
// apply path that live writes, replay and ApplyReplicated share — for
// both record kinds, each offered to a small model. A record is either
// refused by its decode, leaving the model unchanged, or applied without
// error, leaving finite cluster features and bounding rectangles, the
// mass grown by exactly one observation and Validate clean. A clustering
// record is first offered to the shard-time check ApplyReplicated makes
// before logging; a refusal there must leave the model unchanged too, and
// a record that passes it must apply.
func FuzzRecordApply(f *testing.F) {
	for _, seed := range []struct {
		kind byte
		rec  []byte
	}{
		{0, encodeRecord([]float64{1, -1, 0.5}, 1)},
		{0, encodeRecord([]float64{1, -1, 0.5}, 99)}, // a label the model does not predict
		{0, encodeRecord([]float64{1, -1, 0.5}, -1)},
		{0, encodeRecord([]float64{1, math.NaN(), 0.5}, 2)},
		{0, encodeRecord([]float64{math.Inf(-1), 0, 0}, 0)},
		{0, encodeRecord([]float64{1e300, -1e300, 0}, 0)},
		{0, []byte("short")},
		{1, encodeRecord([]float64{0.5, 0.5}, 100, 3)},
		{1, encodeRecord([]float64{0.5, 0.5}, 100, 0)}, // parks at the root
		{1, encodeRecord([]float64{0.5, 0.5}, 100, -7)},
		{1, encodeRecord([]float64{0.5, 0.5}, 5, 3)}, // before the shard's time
		{1, encodeRecord([]float64{0.5, math.Inf(1)}, 100, 3)},
		{1, encodeRecord([]float64{1e300, -1e300}, 100, 3)},
		{1, encodeRecord([]float64{0.5}, 100, 3)},
	} {
		f.Add(seed.kind, seed.rec)
	}
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		if kind%2 == 0 {
			s, err := NewEmpty(1, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			xs, ys := classPoints(40)
			for i := range xs {
				if err := s.Insert(xs[i], ys[i]); err != nil {
					t.Fatal(err)
				}
			}
			fuzzApply(t, &s.engine, payload, classMass)
			return
		}
		ccfg := clustree.DefaultConfig(2)
		ccfg.Lambda = 0 // undecayed, so an apply adds exactly its one to the mass
		s, err := NewCluster(ccfg, 1, Config{}, ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		xs, _ := classPoints(40)
		for i, x := range xs {
			if _, err := s.Insert(x[:2], 1+i%4); err != nil {
				t.Fatal(err)
			}
		}
		fuzzApply(t, &s.engine, payload, clusterMass)
	})
}

// fuzzApply offers payload to e's record path on shard 0, as
// ApplyReplicated does, and checks the outcome: mass reports the model's
// observation mass and fails the test on a broken invariant.
func fuzzApply[M Model](t *testing.T, e *engine[M], payload []byte, mass func(*testing.T, M) float64) {
	sh := e.shards[0]
	// A ClusTree's reads decay entries to now in place, so the mass is
	// read before the snapshot it is compared with.
	was := mass(t, sh.tree)
	var before bytes.Buffer
	if err := e.WriteSnapshot(&before); err != nil {
		t.Fatal(err)
	}
	at, apply, after, err := e.wl.record(payload)
	if err == nil && e.wl.stale != nil {
		err = e.wl.stale(sh.tree, at)
	}
	if err == nil {
		sh.mu.Lock()
		err = apply(sh)
		sh.mu.Unlock()
		if err != nil {
			t.Fatalf("a decoded record failed its apply: %v", err)
		}
		if after != nil {
			after()
		}
		if now := mass(t, sh.tree); now != was+1 {
			t.Fatalf("an applied record moved the mass %v → %v", was, now)
		}
		return
	}
	var now bytes.Buffer
	if err := e.WriteSnapshot(&now); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), now.Bytes()) {
		t.Fatalf("a refused record (%v) changed the model", err)
	}
}

// finiteCF fails unless every component of cf is finite.
func finiteCF(t *testing.T, cf *stats.CF) {
	t.Helper()
	for _, v := range append(append([]float64{cf.N}, cf.LS...), cf.SS...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite cluster feature %+v", *cf)
		}
	}
}

// classMass checks a MultiTree — Validate, then every entry's rectangle
// and class features finite — and returns its mass, which must equal its
// observation count.
func classMass(t *testing.T, m *core.MultiTree) float64 {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var walk func(n *core.MultiNode)
	walk = func(n *core.MultiNode) {
		if n == nil || n.IsLeaf() {
			return
		}
		for _, e := range n.Entries() {
			for _, v := range append(append([]float64(nil), e.Rect.Lo...), e.Rect.Hi...) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite rectangle %+v", e.Rect)
				}
			}
			finiteCF(t, &e.Total)
			for c := range e.CFs {
				finiteCF(t, &e.CFs[c])
			}
			walk(e.Child)
		}
	}
	walk(m.Root())
	if m.Weight() != float64(m.Len()) {
		t.Fatalf("mass %v of %d observations", m.Weight(), m.Len())
	}
	return m.Weight()
}

// clusterMass checks a ClusTree — Validate, then every micro-cluster's
// feature finite — and returns its mass, parked objects included.
func clusterMass(t *testing.T, m *ctree) float64 {
	t.Helper()
	if err := m.t.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mc := range m.t.MicroClusters(0) {
		finiteCF(t, &mc.CF)
	}
	return m.t.Weight()
}
