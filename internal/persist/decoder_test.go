package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
)

// codec is one snapshot kind as the differential test and the fuzz
// target drive it: the decoder, the reader-based oracle it replaced
// (oracle_test.go), the encoder and the model's own invariant check. A
// rejected decode returns an untyped nil model.
type codec struct {
	name     string
	kind     byte
	decode   func(io.Reader) (any, error)
	oracle   func(io.Reader) (any, error)
	encode   func(io.Writer, any) error
	validate func(any) error
}

// orNil hides a typed nil (or zero) model behind an untyped one, so
// "reject ⇒ no model" is one comparison for every kind.
func orNil[M any](m M, err error, isZero func(M) bool) (any, error) {
	if isZero(m) {
		return nil, err
	}
	return m, err
}

func nilPtr[T any](p *T) bool           { return p == nil }
func noTrees(ts []*core.MultiTree) bool { return ts == nil }
func emptySet(s ClusterSet) bool        { return s.Trees == nil && s.Clock == 0 }

func validateAll[T interface{ Validate() error }](ts []T) error {
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
	}
	return nil
}

var codecs = []codec{
	{"classifier", kindForest,
		func(r io.Reader) (any, error) { m, err := DecodeClassifier(r); return orNil(m, err, nilPtr) },
		func(r io.Reader) (any, error) { m, err := oracleDecodeClassifier(r); return orNil(m, err, nilPtr) },
		func(w io.Writer, m any) error { return EncodeClassifier(w, m.(*core.Classifier)) },
		func(m any) error {
			c := m.(*core.Classifier)
			for _, l := range c.Labels() {
				if err := c.Tree(l).Validate(); err != nil {
					return fmt.Errorf("class %d: %w", l, err)
				}
			}
			return nil
		}},
	{"multiset", kindMultiSet,
		func(r io.Reader) (any, error) { m, err := DecodeMultiTrees(r); return orNil(m, err, noTrees) },
		func(r io.Reader) (any, error) { m, err := oracleDecodeMultiTrees(r); return orNil(m, err, noTrees) },
		func(w io.Writer, m any) error { return EncodeMultiTrees(w, m.([]*core.MultiTree)) },
		func(m any) error { return validateAll(m.([]*core.MultiTree)) }},
	{"clusterset", kindClusterSet,
		func(r io.Reader) (any, error) { m, err := DecodeClusterSet(r); return orNil(m, err, emptySet) },
		func(r io.Reader) (any, error) { m, err := oracleDecodeClusterSet(r); return orNil(m, err, emptySet) },
		func(w io.Writer, m any) error { return EncodeClusterSet(w, m.(ClusterSet)) },
		func(m any) error { return validateAll(m.(ClusterSet).Trees) }},
}

func codecOf(kind byte) *codec {
	for i := range codecs {
		if codecs[i].kind == kind {
			return &codecs[i]
		}
	}
	return nil
}

// sample is one valid snapshot of the corpus.
type sample struct {
	name string
	snap []byte
}

// payloadOf is the payload of a framed snapshot.
func payloadOf(snap []byte) []byte { return snap[headerBytes : len(snap)-sumBytes] }

// encodeAny is the snapshot of a *core.Classifier, a []*core.MultiTree
// or a ClusterSet.
func encodeAny(tb testing.TB, m any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	var err error
	switch m := m.(type) {
	case *core.Classifier:
		err = EncodeClassifier(&buf, m)
	case []*core.MultiTree:
		err = EncodeMultiTrees(&buf, m)
	default:
		err = EncodeClusterSet(&buf, m.(ClusterSet))
	}
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// frame wraps payload as a snapshot of the given version with a correct
// length and checksum: how a mutation gets past the frame and reaches
// the field parsers.
func frame(version uint32, payload []byte) []byte {
	out := make([]byte, headerBytes, headerBytes+len(payload)+sumBytes)
	copy(out, magic[:])
	binary.LittleEndian.PutUint32(out[4:], version)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// smallMultiTree is a model of a few nodes, decayed or not: small enough
// that its snapshot can be cut at every byte and is a good fuzz seed.
func smallMultiTree(tb testing.TB, decayed bool) *core.MultiTree {
	tb.Helper()
	cfg := core.Config{Dim: 2, MinFanout: 2, MaxFanout: 4, MinLeaf: 2, MaxLeaf: 4}
	mt, err := core.NewMultiTree(cfg, []int{3, 7}, core.MultiOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	if decayed {
		if err := mt.EnableDecay(core.DecayOptions{Lambda: 0.25, MinWeight: 0.01}); err != nil {
			tb.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 14; i++ {
		if i == 8 && decayed {
			for range 2 {
				mt.AdvanceDecay()
			}
		}
		if err := mt.Insert([]float64{rng.Float64(), rng.Float64()}, 3+4*(i%2)); err != nil {
			tb.Fatal(err)
		}
	}
	return mt
}

// smallForest is a decayed two-class forest that has lived through a
// pruning sweep and learned after it.
func smallForest(tb testing.TB) *core.Classifier {
	tb.Helper()
	cfg := core.Config{Dim: 2, MinFanout: 2, MaxFanout: 4, MinLeaf: 2, MaxLeaf: 5}
	rng := rand.New(rand.NewSource(13))
	trees := make([]*core.MultiTree, 2)
	for c := range trees {
		tr, err := core.NewMultiTree(cfg, []int{c}, core.MultiOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		if err := tr.EnableDecay(core.DecayOptions{Lambda: 1, MinWeight: 0.1}); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if i == 25 {
				for range 2 {
					tr.AdvanceDecay()
				}
			}
			if err := tr.Insert([]float64{float64(c)*0.5 + 0.3*rng.Float64(), rng.Float64()}, c); err != nil {
				tb.Fatal(err)
			}
		}
		tr.AdvanceDecay()
		if err := tr.Insert([]float64{float64(c) * 0.5, 0.5}, c); err != nil {
			tb.Fatal(err)
		}
		trees[c] = tr
	}
	clf, err := core.NewClassifier(trees, core.ClassifierOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return clf
}

func smallClusTree(tb testing.TB, lambda float64) *clustree.Tree {
	tb.Helper()
	cfg := clustree.DefaultConfig(2)
	cfg.Lambda = lambda
	tree, err := clustree.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		if err := tree.Insert([]float64{float64(i%3) + 0.1*rng.NormFloat64(), rng.NormFloat64()}, float64(i+1), 1+i%3); err != nil {
			tb.Fatal(err)
		}
	}
	return tree
}

// snapshotCorpus is every kind of snapshot the package's tests build —
// per-class forest, sharded multi-class set and cluster set — over
// decayed models with weighted leaves, a multi-class tree under every
// option at once, a ClusTree under budget pressure (at two clocks), a
// cluster set of two trees, and models of a few nodes. A sample named
// after one tree is the set of that tree alone.
func snapshotCorpus(tb testing.TB) []sample {
	tb.Helper()
	clf, _ := trainClassifier(tb, 9, core.ClassifierOptions{Strategy: core.DescentBFT})
	mt, _ := buildMultiTree(tb, 5, core.MultiOptions{PooledVariance: true})
	small, smallDecayed := smallMultiTree(tb, false), smallMultiTree(tb, true)
	pressed, tiny := buildClusTree(tb, 31, 0.003), smallClusTree(tb, 0.01)
	var out []sample
	for _, m := range []struct {
		name  string
		model any
	}{
		{"forest", clf},
		{"forest-decayed-small", smallForest(tb)},
		{"multitree", []*core.MultiTree{mt}},
		{"multitree-decayed", []*core.MultiTree{buildDecayedMultiTree(tb)}},
		{"multitree-small", []*core.MultiTree{small}},
		{"multitree-small-decayed", []*core.MultiTree{smallDecayed}},
		{"multiset-small", []*core.MultiTree{small, smallDecayed}},
		{"clustree", ClusterSet{Trees: []*clustree.Tree{pressed}, Clock: 1200}},
		{"clustree-small", ClusterSet{Trees: []*clustree.Tree{tiny}, Clock: 40}},
		{"clusterset-small", ClusterSet{Trees: []*clustree.Tree{tiny, smallClusTree(tb, 0)}, Clock: 40}},
		{"clusterset-storeless", ClusterSet{Trees: []*clustree.Tree{pressed}, Clock: 7}},
	} {
		out = append(out, sample{m.name, encodeAny(tb, m.model)})
	}
	return out
}

// retiredSnapshots is what this build no longer reads: a snapshot of
// each kind framed as version 1 and as version 2, and well-formed
// version-3 frames of the retired kinds 1 (a forest of the retired
// per-class tree type, written by the last build that had it:
// testdata/kind-1.snap), 2 (one multi-class tree) and 4 (one ClusTree),
// and five sets that a build which had the setting wrote with a value
// the setting is no longer allowed: a kind-3 set whose tree has the
// retired entropy-priority flag set (testdata/kind-3-entropy.snap) or
// forced reinsertion off (testdata/kind-3-no-reinsert.snap) or an epoch
// of decay not yet swept, its reference epoch 0 below its epoch 2
// (testdata/kind-3-reference-epoch.snap) or the Epanechnikov leaf
// kernel (testdata/kind-3-epanechnikov.snap), and a cluster set whose
// tree's leaves hold six micro-clusters
// (testdata/clusterset-leaf-6.snap); and a cluster set whose retired
// pyramidal store slot holds five snapshots
// (testdata/clusterset-store.snap), and every cluster set of the corpus
// with that slot's flag set.
func retiredSnapshots(tb testing.TB) []sample {
	tb.Helper()
	small, tiny := smallMultiTree(tb, true), smallClusTree(tb, 0.01)
	var out []sample
	for _, m := range []any{smallForest(tb), []*core.MultiTree{small}, ClusterSet{Trees: []*clustree.Tree{tiny}, Clock: 40}} {
		payload := payloadOf(encodeAny(tb, m))
		for _, v := range []uint32{1, 2} {
			out = append(out, sample{fmt.Sprintf("kind-%d-v%d", payload[0], v), frame(v, payload)})
		}
	}
	one := &encoder{p: []byte{2}}
	one.multiTree(small)
	out = append(out, sample{"kind-2", frame(Version, one.p)})
	one = &encoder{p: []byte{4}}
	one.clusTree(tiny, tiny.Dump())
	out = append(out, sample{"kind-4", frame(Version, one.p)})
	for _, name := range []string{"kind-1", "kind-3-entropy", "kind-3-no-reinsert", "kind-3-reference-epoch", "kind-3-epanechnikov", "clusterset-leaf-6", "clusterset-store"} {
		snap, err := os.ReadFile(filepath.Join("testdata", name+".snap"))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, sample{name, snap})
	}
	for _, s := range snapshotCorpus(tb) {
		if payload := payloadOf(s.snap); payload[0] == kindClusterSet {
			// The slot's flag is the byte before the clock.
			filled := append([]byte(nil), payload...)
			filled[len(filled)-9] = 1
			out = append(out, sample{"clusterset-store", frame(Version, filled)})
		}
	}
	return out
}

var sentinels = []error{ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated}

// declaredBeyondInput reports whether a frame's header declares more
// payload than the input holds: the one input the oracle is not shown,
// because it allocates the declaration (the hole readDeclared closes).
func declaredBeyondInput(b []byte) bool {
	return len(b) >= headerBytes && binary.LittleEndian.Uint64(b[8:16]) > uint64(len(b))
}

// checkAgainstOracle decodes b with the slice decoder and the oracle and
// holds them to the same verdict: both accept or both reject, with the
// same sentinel, and what they accept encodes to the same bytes. It
// returns the slice decoder's model and the bytes it encodes to.
func checkAgainstOracle(t *testing.T, c *codec, b []byte) (model any, again []byte) {
	t.Helper()
	got, err := c.decode(bytes.NewReader(b))
	return holdToOracle(t, c, b, got, err)
}

// holdToOracle is checkAgainstOracle for a decode already made.
func holdToOracle(t *testing.T, c *codec, b []byte, got any, err error) (model any, again []byte) {
	t.Helper()
	if (got == nil) != (err != nil) {
		t.Fatalf("%s: decode returned model %v with error %v", c.name, got != nil, err)
	}
	if declaredBeyondInput(b) {
		if !slices.ContainsFunc(sentinels, func(s error) bool { return errors.Is(err, s) }) {
			t.Fatalf("%s: a header declaring more than the input holds: %v", c.name, err)
		}
		return nil, nil
	}
	want, werr := c.oracle(bytes.NewReader(b))
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: slice decoder says %v, oracle says %v", c.name, err, werr)
	}
	for _, s := range sentinels {
		if errors.Is(err, s) != errors.Is(werr, s) {
			t.Fatalf("%s: slice decoder says %v, oracle says %v", c.name, err, werr)
		}
	}
	if err != nil {
		return nil, nil
	}
	var a, o bytes.Buffer
	if err := c.encode(&a, got); err != nil {
		t.Fatalf("%s: encode: %v", c.name, err)
	}
	if err := c.encode(&o, want); err != nil {
		t.Fatalf("%s: encode oracle's model: %v", c.name, err)
	}
	if !bytes.Equal(a.Bytes(), o.Bytes()) {
		t.Fatalf("%s: the two decoders' models encode differently", c.name)
	}
	return got, a.Bytes()
}

// mutate returns the i-th seeded mutation of a valid snapshot: flipped
// payload bytes (checksum re-stamped, and not), payloads cut short and
// re-framed, raw truncations, counts inflated, flag and tag bytes set
// out of range, the kind and the version swapped, bytes appended inside
// and after the frame, a header that declares more than follows.
func mutate(rng *rand.Rand, snap []byte, i int) []byte {
	version := binary.LittleEndian.Uint32(snap[4:])
	payload := append([]byte(nil), payloadOf(snap)...)
	at := rng.Intn(len(payload))
	switch i % 10 {
	case 0:
		payload[at] ^= 1 << rng.Intn(8)
		return frame(version, payload)
	case 1:
		bad := append([]byte(nil), snap...)
		bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
		return bad
	case 2:
		return frame(version, payload[:at])
	case 3:
		return snap[:rng.Intn(len(snap))]
	case 4:
		// Inflate a word that reads as a count, a label or a dimension.
		for tries := 0; tries < 64 && at+8 <= len(payload); tries, at = tries+1, rng.Intn(len(payload)) {
			if v := binary.LittleEndian.Uint64(payload[at:]); v > 0 && v < 1<<16 {
				break
			}
		}
		if at+8 > len(payload) {
			at = len(payload) - 8
		}
		v := binary.LittleEndian.Uint64(payload[at:])
		binary.LittleEndian.PutUint64(payload[at:], []uint64{v + 1, 2 * v, v << 32, 1 << 61, math.MaxUint64, 0}[rng.Intn(6)])
		return frame(version, payload)
	case 5:
		payload[at] = byte(2 + rng.Intn(3))
		return frame(version, payload)
	case 6:
		payload[0] = byte(rng.Intn(7))
		return frame(version, payload)
	case 7:
		return frame(1+version%Version, payload)
	case 8:
		if rng.Intn(2) == 0 {
			return frame(version, append(payload, make([]byte, 1+rng.Intn(16))...))
		}
		return append(append([]byte(nil), snap...), 0xAB)
	default:
		bad := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint64(bad[8:], uint64(len(payload))+uint64(1)<<uint(rng.Intn(36)))
		return bad
	}
}

// TestSliceDecoderMatchesReaderOracle: the slice-cursor decoder and the
// reader-based decoder it replaced give the same verdict on every
// snapshot of the corpus, on its payload cut at every byte (small
// snapshots) or at every one of its first 512 and 300 sampled ones, and
// on 2,000 seeded mutations of each.
func TestSliceDecoderMatchesReaderOracle(t *testing.T) {
	mutations := 2000
	if raceEnabled {
		mutations = 250
	}
	for _, s := range snapshotCorpus(t) {
		s := s
		t.Run(s.name, func(t *testing.T) {
			c := codecOf(payloadOf(s.snap)[0])
			model, again := checkAgainstOracle(t, c, s.snap)
			if model == nil {
				t.Fatal("a valid snapshot was refused")
			}
			if !bytes.Equal(again, s.snap) {
				t.Fatal("a valid snapshot does not encode back to its bytes")
			}
			if err := c.validate(model); err != nil {
				t.Fatalf("a valid snapshot decodes to an invalid model: %v", err)
			}
			payload := payloadOf(s.snap)
			rng := rand.New(rand.NewSource(24))
			cut := func(n int) {
				if m, _ := checkAgainstOracle(t, c, frame(Version, payload[:n])); m != nil {
					t.Fatalf("payload cut to %d of %d bytes was accepted", n, len(payload))
				}
			}
			if len(payload) <= 4096 {
				for n := range payload {
					cut(n)
				}
			} else {
				for n := 0; n < 512; n++ {
					cut(n)
				}
				for i := 0; i < 300; i++ {
					cut(rng.Intn(len(payload)))
				}
			}
			accepted := 0
			for i := 0; i < mutations; i++ {
				if m, _ := checkAgainstOracle(t, c, mutate(rng, s.snap, i)); m != nil {
					accepted++
				}
			}
			t.Logf("%d bytes: %d of %d mutations accepted by both", len(s.snap), accepted, mutations)
		})
	}
}

// fuzzRatio bounds what a rejected decode may allocate per input byte. A
// v3 inner entry is its child's 9-byte tag and count, from which a
// decode builds a 136-byte entry (144 as allocated) and an 80-byte node:
// ≈ 25 ×, and 32 × with the children stack. A count that reserved by
// its declaration, nested, would take the input's square.
const fuzzRatio = 32

// fuzzSlack is what a decode may allocate beyond its fuzzRatio bound:
// the fixed cost of a decoder, an error and the Rebuild* bookkeeping of
// an empty model, which an input of a few bytes cannot amortise.
const fuzzSlack = 16 << 10

// fuzzSeedMutations is how many seeded mutations of each small corpus
// snapshot FuzzDecodeSnapshot seeds: eight snapshots of three kinds get
// as many seeds between them as thirteen of five kinds got at forty.
const fuzzSeedMutations = 65

// FuzzDecodeSnapshot holds every Decode* to its contract on whatever the
// fuzzer finds. The harness stamps the magic, the payload length and the
// checksum over the input, so mutations reach the field parsers, and
// shows the result to all three decoders: at most the one the kind byte
// names may accept it. Rejected: no model, no goroutine left behind, and
// no more allocated than fuzzRatio × the input — a declared count cannot
// reserve what the input does not hold. Accepted: the oracle accepts it
// too, the model encodes back to the input byte for byte, and the
// model's Validate runs without panicking. For the classification kinds
// it passes: their snapshots store no summary a subtree can disagree
// with, and the rebuild checks the node shapes Validate does. A
// ClusTree's stored CFs may disagree — they are not a function of their
// children — and checking that costs a decode as much again.
//
// The seeds are the corpus's snapshots under 16 KiB (every kind),
// fuzzSeedMutations seeded mutations of each and the retired snapshots,
// so that `go test` alone catches a decoder that drops a bound, skips
// the kind or version check, lets trailing bytes through, leaves a
// derived entry unsummarised or accepts a retired slot.
func FuzzDecodeSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(24))
	for _, s := range snapshotCorpus(f) {
		if len(s.snap) > 16<<10 {
			continue
		}
		f.Add(s.snap)
		for i := 0; i < fuzzSeedMutations; i++ {
			f.Add(mutate(rng, s.snap, i))
		}
	}
	for _, s := range retiredSnapshots(f) {
		f.Add(s.snap)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < headerBytes+sumBytes+1 || len(in) > 1<<20 {
			return
		}
		version := binary.LittleEndian.Uint32(in[4:])
		b := frame(version, in[headerBytes:len(in)-sumBytes])
		for i := range codecs {
			c := &codecs[i]
			goroutines := runtime.NumGoroutine()
			m, err, grew := decodeMeasured(c, b)
			if m == nil && err != nil {
				// Both counters are the process's: a reading over the
				// bound counts only if a second decode repeats it.
				if limit := uint64(fuzzRatio*len(b) + fuzzSlack); grew > limit {
					if _, _, again := decodeMeasured(c, b); again > limit {
						t.Fatalf("%s: a rejected %d-byte input allocated %d bytes: %v", c.name, len(b), again, err)
					}
				}
				if runtime.NumGoroutine() > goroutines {
					if stacks := goroutinesStartedBy("bayestree/internal/"); stacks != "" {
						t.Fatalf("%s: a rejected decode left goroutines behind:\n%s", c.name, stacks)
					}
				}
			}
			model, again := holdToOracle(t, c, b, m, err)
			if model == nil {
				continue
			}
			if c.kind != payloadOf(b)[0] {
				t.Fatalf("%s: accepted a snapshot of kind %d", c.name, payloadOf(b)[0])
			}
			if !bytes.Equal(again, b) {
				t.Fatalf("%s: an accepted snapshot does not encode back to its bytes", c.name)
			}
			if err := c.validate(model); err != nil && c.kind <= kindMultiSet {
				t.Fatalf("%s: an accepted snapshot decodes to an invalid model: %v", c.name, err)
			}
		}
	})
}

// decodeMeasured decodes b and reports what the process allocated while
// it did.
func decodeMeasured(c *codec, b []byte) (m any, err error, grew uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err = c.decode(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	return m, err, after.TotalAlloc - before.TotalAlloc
}

// goroutinesStartedBy returns the stacks of the live goroutines that
// code of the given package path prefix started; the fuzz engine's own
// come and go, so a count of all goroutines says nothing. A goroutine
// whose deferred Done released a join may still be on its way out when
// the join returns, so only one still there after a second counts.
func goroutinesStartedBy(prefix string) string {
	buf := make([]byte, 1<<20)
	var out []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		out = out[:0]
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "created by "+prefix) {
				out = append(out, g)
			}
		}
		if len(out) == 0 || time.Now().After(deadline) {
			return strings.Join(out, "\n\n")
		}
	}
}

// TestDeclaredLengthCannotAllocate: a header may declare 32 GiB; what is
// allocated is bounded by what follows it, whatever the source — one
// that can say what it has left (a file, an in-memory reader) is refused
// before the buffer is made, any other is read into a buffer that grows
// with what arrives.
func TestDeclaredLengthCannotAllocate(t *testing.T) {
	hostile := make([]byte, headerBytes, headerBytes+4)
	copy(hostile, magic[:])
	binary.LittleEndian.PutUint32(hostile[4:], Version)
	binary.LittleEndian.PutUint64(hostile[8:], 32<<30)
	hostile = append(hostile, 1, 2, 3, 4)
	path := filepath.Join(t.TempDir(), "hostile.btsn")
	if err := os.WriteFile(path, hostile, 0o644); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() io.Reader{
		"bytes.Reader": func() io.Reader { return bytes.NewReader(hostile) },
		"stream":       func() io.Reader { return io.MultiReader(bytes.NewReader(hostile)) },
		"file": func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
	}
	for name, open := range sources {
		for i := range codecs {
			c := &codecs[i]
			r := open()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := c.decode(r)
			runtime.ReadMemStats(&after)
			if m != nil || !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s from %s: model %v, error %v; want ErrTruncated", c.name, name, m != nil, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("%s from %s: a 20-byte input allocated %d bytes", c.name, name, grew)
			}
		}
	}
}

// TestStreamedSnapshotDecodes: a source that cannot say what it has left
// (a follower's snapshot stream) delivers a whole snapshot in small
// reads, across several growths of the buffer, and decodes to the same
// model as the file does.
func TestStreamedSnapshotDecodes(t *testing.T) {
	for _, s := range snapshotCorpus(t) {
		c := codecOf(payloadOf(s.snap)[0])
		m, err := c.decode(oneKiBReader{bytes.NewReader(s.snap)})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var streamed bytes.Buffer
		if err := c.encode(&streamed, m); err != nil {
			t.Fatal(err)
		}
		if _, direct := checkAgainstOracle(t, c, s.snap); !bytes.Equal(streamed.Bytes(), direct) {
			t.Fatalf("%s: streamed and in-memory decodes differ", s.name)
		}
	}
}

// oneKiBReader reads at most 1 KiB at a time and hides every other
// method of the reader it wraps.
type oneKiBReader struct{ r io.Reader }

func (s oneKiBReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), 1024)]) }

// TestDecodeAllocs: a decode allocates what it builds — a node and its
// entry or point slice per node, a point, and per derived inner entry
// one block for its MBR and cluster features plus its class CF slice —
// and nothing per word: the reader-based decoder allocated sixteen
// times this, an escaping [8]byte for every float64 it read.
func TestDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	set, snap := benchSnapshot(t)
	built := 0
	var walk func(n *core.MultiNode, classes int)
	walk = func(n *core.MultiNode, classes int) {
		built += 2 // the node and its entry or point slice
		if n.IsLeaf() {
			built += len(n.Points()) // one coordinate vector a point
			return
		}
		for _, e := range n.Entries() {
			built += 2 // the vector block and the class CF slice
			walk(e.Child, classes)
		}
	}
	for _, mt := range set {
		walk(mt.Root(), len(mt.Labels()))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := DecodeMultiTrees(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations to build %d vectors, nodes and points from %d bytes", allocs, built, len(snap))
	if limit := 1.1 * float64(built); allocs > limit {
		t.Fatalf("a decode of %d bytes allocates %.0f times, more than 1.1 × the %d things it builds", len(snap), allocs, built)
	}
}
