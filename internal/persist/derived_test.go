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
	"bayestree/internal/mbr"
	"bayestree/internal/stats"
)

// answers is every answer a model gives to the probes (cut to its
// dimensionality): each probe's class posteriors (forest) or scores
// (multi-class set, per shard) after 0, 1, 4 and all node reads, as
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

// sameBits reports whether two vectors are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameCF(a, b *stats.CF) bool {
	return math.Float64bits(a.N) == math.Float64bits(b.N) && sameBits(a.LS, b.LS) && sameBits(a.SS, b.SS)
}

func sameRect(a, b *mbr.Rect) bool { return sameBits(a.Lo, b.Lo) && sameBits(a.Hi, b.Hi) }

// summaryDiff walks two models of the same shape — a *core.Classifier or
// a []*core.MultiTree — in pre-order and names the first inner entry at
// which they differ in a bit of the MBR or of a cluster feature (a class
// CF or the Total); "" when none does.
func summaryDiff(want, got any) string {
	var a, b []*core.MultiTree
	switch want := want.(type) {
	case *core.Classifier:
		for _, l := range want.Labels() {
			a, b = append(a, want.Tree(l)), append(b, got.(*core.Classifier).Tree(l))
		}
	case []*core.MultiTree:
		a, b = want, got.([]*core.MultiTree)
	}
	for i := range a {
		if at := entryDiff(fmt.Sprint("tree ", i), a[i].Root(), b[i].Root()); at != "" {
			return at
		}
	}
	return ""
}

// entryDiff is summaryDiff over one tree.
func entryDiff(at string, a, b *core.MultiNode) string {
	if a.IsLeaf() != b.IsLeaf() {
		return at + ": a leaf against an inner node"
	}
	if a.IsLeaf() {
		return ""
	}
	ea, eb := a.Entries(), b.Entries()
	if len(ea) != len(eb) {
		return at + ": entry counts differ"
	}
	for i := range ea {
		here := fmt.Sprintf("%s/%d", at, i)
		same := sameRect(&ea[i].Rect, &eb[i].Rect) && sameCF(&ea[i].Total, &eb[i].Total) && len(ea[i].CFs) == len(eb[i].CFs)
		for c := 0; same && c < len(ea[i].CFs); c++ {
			same = sameCF(&ea[i].CFs[c], &eb[i].CFs[c])
		}
		if !same {
			return here
		}
		if d := entryDiff(here, ea[i].Child, eb[i].Child); d != "" {
			return d
		}
	}
	return ""
}

// derivedCorpus is one model of every shape whose inner summaries a
// snapshot does not store: forests bulk-loaded by every loader (all but
// "iterative" through core.Builder), decayed forests that lived through
// sweeps and learned after them, multi-class trees under every
// MultiOptions, a decayed one, and sharded sets.
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
	for _, mo := range []core.MultiOptions{{}, {PooledVariance: true}} {
		mt, _ := buildMultiTree(tb, 5, mo)
		out = append(out, named{fmt.Sprintf("multitree-%+v", mo), []*core.MultiTree{mt}})
	}
	return append(out, named{"multitree-decayed", []*core.MultiTree{buildDecayedMultiTree(tb)}},
		named{"multiset", benchShards(tb, 3, 150, 3, 4)},
		named{"multiset-small", []*core.MultiTree{smallMultiTree(tb, false), smallMultiTree(tb, true)}})
}

// TestDerivedSummariesMatchStored: on every model of derivedCorpus each
// inner summary a decode derives from the leaves is bitwise the one the
// source model holds, the decode answers every probe bit-identically to
// the model that was saved, and it encodes back to its own bytes.
func TestDerivedSummariesMatchStored(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	probes := make([][]float64, 20)
	for i := range probes {
		probes[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	for _, c := range derivedCorpus(t) {
		snap := encodeAny(t, c.m)
		got, err := decodeAny(snap)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if at := summaryDiff(c.m, got); at != "" {
			t.Fatalf("%s: the derived inner summary at %s differs from the source's", c.name, at)
		}
		if !slices.Equal(answers(t, got, probes), answers(t, c.m, probes)) {
			t.Fatalf("%s: the decode answers differently", c.name)
		}
		if !bytes.Equal(encodeAny(t, got), snap) {
			t.Fatalf("%s: the decode does not encode to its bytes", c.name)
		}
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

// TestDerivedChainCannotAllocate: an inner node is 9 bytes, a tag and a
// child count, so a forged chain of them — each declaring as many
// children as the bytes after it could hold — nests its counts 800 deep
// in 7 KB, the one shard of a set. Reserved by declaration, every level
// would reserve against the same remaining bytes (46 MB); read
// children-first, the decode allocates what the input holds.
func TestDerivedChainCannotAllocate(t *testing.T) {
	small := smallMultiTree(t, false)
	e := &encoder{p: []byte{}}
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
	set := &encoder{p: []byte{kindMultiSet}}
	set.u64(1)
	set.u64(uint64(len(e.p)))
	snap := frame(Version, append(set.p, e.p...))
	m, err, grew := decodeMeasured(codecOf(kindMultiSet), snap)
	if m != nil || err == nil {
		t.Fatal("a chain of inner nodes without leaves was accepted")
	}
	if limit := uint64(fuzzRatio*len(snap) + fuzzSlack); grew > limit {
		t.Fatalf("a forged %d-byte chain allocated %d bytes, more than %d", len(snap), grew, limit)
	}
}
