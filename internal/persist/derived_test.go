package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/eval"
)

// answers is every answer a model gives to the probes (cut to its
// dimensionality): each probe's class posteriors (forest) or scores
// (multi-class tree, per shard) after 0, 1, 4 and all node reads, as
// float64 bits.
func answers(tb testing.TB, m any, probes [][]float64) []uint64 {
	tb.Helper()
	var out []uint64
	record := func(vs []float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, x := range probes {
		switch m := m.(type) {
		case *core.Classifier:
			q := m.NewQuery(x[:m.Tree(m.Labels()[0]).Config().Dim])
			for step := 0; ; step++ {
				if step == 0 || step == 1 || step == 4 {
					record(q.Posteriors())
				}
				if !q.Step() {
					break
				}
			}
			record(q.Posteriors())
			q.Close()
		case *core.MultiTree:
			out = append(out, answers(tb, []*core.MultiTree{m}, [][]float64{x})...)
		case []*core.MultiTree:
			for _, t := range m {
				q, err := t.NewQuery(x[:t.Config().Dim], core.ClassifierOptions{})
				if err != nil {
					tb.Fatal(err)
				}
				for step := 0; ; step++ {
					if step == 0 || step == 1 || step == 4 {
						record(q.Scores())
					}
					if !q.Step() {
						break
					}
				}
				record(q.Scores())
				q.Close()
			}
		}
	}
	return out
}

// decodeAny decodes a classification snapshot of any kind.
func decodeAny(snap []byte) (any, error) {
	return codecOf(payloadOf(snap)[0]).decode(bytes.NewReader(snap))
}

// derivedCorpus is one model of every shape whose inner summaries v3
// stops storing: forests bulk-loaded by every loader (all but
// "iterative" through core.Builder), decayed forests that lived through
// forced reinsertion and sweeps, multi-class trees under every
// MultiOptions, a decayed one, and a sharded set.
func derivedCorpus(tb testing.TB) []struct {
	name string
	m    any
} {
	tb.Helper()
	type named = struct {
		name string
		m    any
	}
	ds, err := dataset.Synthetic(dataset.SyntheticSpec{
		Name: "derived", Size: 400, Classes: 3, Features: 3,
		ModesPerClass: 2, Spread: 0.08, Overlap: 0.15, Seed: 27,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var out []named
	for _, loader := range bulkload.All() {
		clf, err := eval.TrainForest(ds, loader, core.DefaultConfig, core.ClassifierOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, named{"forest-" + loader.Name(), clf})
	}
	out = append(out, named{"forest-decayed", decayedForest(tb)}, named{"forest-decayed-small", smallForest(tb)})
	for _, mo := range []core.MultiOptions{{}, {PooledVariance: true}, {EntropyPriority: true}, {PooledVariance: true, EntropyPriority: true}} {
		mt, _ := buildMultiTree(tb, 5, mo)
		out = append(out, named{fmt.Sprintf("multitree-%+v", mo), mt})
	}
	return append(out, named{"multitree-decayed", buildDecayedMultiTree(tb)},
		named{"multiset", benchShards(tb, 3, 150, 3, 4)},
		named{"multiset-small", []*core.MultiTree{smallMultiTree(tb, false), smallMultiTree(tb, true)}})
}

// TestDerivedSummariesMatchStored: on every model of derivedCorpus each
// inner summary the v2 writer stores is bitwise the one a decode derives
// from the leaves (the oracle reads the stored words and compares), and
// the v3 and v2 decodes answer every probe bit-identically to the model
// that was saved; a v3 decode encodes back to its own bytes.
func TestDerivedSummariesMatchStored(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	probes := make([][]float64, 20)
	for i := range probes {
		probes[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	for _, c := range derivedCorpus(t) {
		v2, v3 := EncodeAt(2, c.m), EncodeAt(3, c.m)
		stale, err := oracleStale(v2)
		if err != nil || stale != 0 {
			t.Fatalf("%s: %d stored inner summaries differ from the derived ones (%v)", c.name, stale, err)
		}
		want := answers(t, c.m, probes)
		for _, snap := range [][]byte{v3, v2} {
			got, err := decodeAny(snap)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !slices.Equal(answers(t, got, probes), want) {
				t.Fatalf("%s: the v%d decode answers differently", c.name, binary.LittleEndian.Uint32(snap[4:]))
			}
			if !bytes.Equal(EncodeAt(3, got), v3) {
				t.Fatalf("%s: the v%d decode does not encode to the v3 bytes", c.name, binary.LittleEndian.Uint32(snap[4:]))
			}
		}
	}
}

// forgedV2 is the v2 snapshot of smallMultiTree with one inner entry's
// stored class CF forged, checksum and all: a well-formed payload whose
// summary disagrees with its subtree.
func forgedV2(tb testing.TB) []byte {
	tb.Helper()
	mt := smallMultiTree(tb, false)
	if mt.Root().IsLeaf() {
		tb.Fatal("smallMultiTree has no inner entry to forge")
	}
	e := mt.Root().Entries()[0]
	e.CFs[0].N += 3
	e.CFs[0].LS[1] = -1e9
	return EncodeAt(2, mt)
}

// TestDerivedIgnoresForgedSummaries: a v2 payload whose stored inner CF
// disagrees with its subtree decodes to the derived values — the model
// smallMultiTree is, encoding to its v3 bytes and passing Validate —
// while the oracle, which still reads the stored words, sees the forgery.
func TestDerivedIgnoresForgedSummaries(t *testing.T) {
	forged := forgedV2(t)
	if stale, err := oracleStale(forged); err != nil || stale != 1 {
		t.Fatalf("the oracle found %d forged summaries (%v), want 1", stale, err)
	}
	got, err := DecodeMultiTree(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeAt(3, got), EncodeAt(3, smallMultiTree(t, false))) ||
		!bytes.Equal(EncodeAt(2, got), EncodeAt(2, smallMultiTree(t, false))) {
		t.Fatal("a forged v2 summary reached the decoded model")
	}
}

// TestDerivedDecodeOneProc: on one processor the shard sections of a
// 1-, 3- and 7-shard set still decode — one goroutine each, all joined —
// to the model that was saved, and a set whose last section (length and
// bytes) is cut short fails in its goroutine and is refused without
// leaving a goroutine behind.
func TestDerivedDecodeOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, shards := range []int{1, 3, 7} {
		set := benchShards(t, shards, 150, 3, 4)
		var buf bytes.Buffer
		if err := EncodeMultiTrees(&buf, set); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMultiTrees(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		var again bytes.Buffer
		if err := EncodeMultiTrees(&again, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("%d shards: the decode does not encode back to its bytes", shards)
		}
		payload := append([]byte(nil), payloadOf(buf.Bytes())...)
		last := 1 + 8*shards
		binary.LittleEndian.PutUint64(payload[last:], binary.LittleEndian.Uint64(payload[last:])-1)
		cut := frame(Version, payload[:len(payload)-1])
		if ts, err := DecodeMultiTrees(bytes.NewReader(cut)); ts != nil || err == nil {
			t.Fatalf("%d shards: a set cut short was accepted", shards)
		}
		if stacks := goroutinesStartedBy("bayestree/internal/persist"); stacks != "" {
			t.Fatalf("%d shards: a decode left goroutines behind:\n%s", shards, stacks)
		}
	}
}

// TestDerivedChainCannotAllocate: a v3 inner node is 9 bytes, a tag and
// a child count, so a forged chain of them — each declaring as many
// children as the bytes after it could hold — nests its counts 800 deep
// in 7 KB. Reserved by declaration, every level would reserve against
// the same remaining bytes (46 MB); read children-first, the decode
// allocates what the input holds.
func TestDerivedChainCannotAllocate(t *testing.T) {
	small := smallMultiTree(t, false)
	e := newEncoderVersion(kindMultiTree, Version)
	e.config(small.Config())
	e.decayState(small.DecayState())
	e.boolv(false)
	e.boolv(false)
	e.u64(uint64(len(small.Labels())))
	for _, l := range small.Labels() {
		e.i64(int64(l))
	}
	for range small.Labels() {
		e.f64(1)
	}
	const depth = 800
	for i := 0; i < depth; i++ {
		e.u8(1)
		e.u64(uint64(depth - i - 1))
	}
	snap := frame(Version, e.p[headerBytes:])
	m, err, grew := decodeMeasured(codecOf(kindMultiTree), snap)
	if m != nil || err == nil {
		t.Fatal("a chain of inner nodes without leaves was accepted")
	}
	if limit := uint64(fuzzRatio*len(snap) + fuzzSlack); grew > limit {
		t.Fatalf("a forged %d-byte chain allocated %d bytes, more than %d", len(snap), grew, limit)
	}
}
