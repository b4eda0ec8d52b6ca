package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/stats"
)

// This file is the snapshot decoder as it stood before the slice
// cursor: the payload behind a bytes.Reader, every word through
// io.ReadFull, the whole declared length allocated up front. It is kept
// as the differential and fuzz oracle (TestSliceDecoderMatchesReaderOracle,
// FuzzDecodeSnapshot), reading what the decoder reads — version 3 of the
// three kinds — and changed only where FuzzDecodeSnapshot found the old
// decoder itself wrong — each such place says so:
//
//   - a flag byte other than 0 or 1 is refused (it decoded as true and
//     encoded back as 1);
//   - payload bytes after the model are refused (they were dropped);
//   - a stored dimensionality is checked before it sizes anything (0
//     divided by zero in count, 2⁶¹ overflowed its argument);
//   - an empty sharded set is refused (EncodeMultiTrees cannot write one
//     and server.New cannot serve one), and an empty cluster set through
//     the decoder's sticky error like every other rejection;
//   - a forest's K outside [1, classes] is refused (NewClassifier
//     clamped it, so it encoded back as another K).

func oracleDecodeClassifier(r io.Reader) (*core.Classifier, error) {
	return oracleDecode(r, kindForest, (*oracleDecoder).classifier)
}

func oracleDecodeMultiTrees(r io.Reader) ([]*core.MultiTree, error) {
	return oracleDecode(r, kindMultiSet, (*oracleDecoder).multiSet)
}

// oracleDecode runs body over the verified payload and requires it to be
// consumed to its last byte.
func oracleDecode[M any](r io.Reader, kind byte, body func(*oracleDecoder) M) (m M, err error) {
	d, err := newOracleDecoder(r, kind)
	if err != nil {
		return m, err
	}
	got := body(d)
	if err := d.done(); err != nil {
		return m, err
	}
	return got, nil
}

func (d *oracleDecoder) classifier() *core.Classifier {
	var opts core.ClassifierOptions
	opts.Strategy = core.Strategy(d.u8())
	opts.Priority = core.Priority(d.u8())
	opts.K = int(d.i64())
	n := d.count(1)
	if d.err == nil && (opts.K < 1 || opts.K > n) {
		d.fail("K %d for %d classes", opts.K, n)
	}
	trees := make([]*core.MultiTree, n)
	for i := 0; i < n; i++ {
		label := d.i64()
		trees[i] = d.multiTree(d.boolv())
		if d.err != nil {
			return nil
		}
		if ls := trees[i].Labels(); len(ls) != 1 || int64(ls[0]) != label {
			d.fail("class %d section holds classes %v", label, ls)
			return nil
		}
	}
	c, err := core.NewClassifier(trees, opts)
	if err != nil {
		d.fail("%v", err)
	}
	return c
}

// multiSet reads a sharded set; the section lengths must each match the
// bytes its tree takes.
func (d *oracleDecoder) multiSet() []*core.MultiTree {
	n := d.count(1)
	if d.err == nil && n == 0 {
		d.fail("empty multi tree set")
	}
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = int64(d.u64())
	}
	ts := make([]*core.MultiTree, 0, n)
	for i := 0; i < n; i++ {
		at := d.b.Len()
		ts = append(ts, d.multiTree(true))
		if d.err == nil && int64(at-d.b.Len()) != sizes[i] {
			d.fail("shard section %d is %d bytes, declared %d", i, at-d.b.Len(), sizes[i])
		}
		if d.err != nil {
			return nil
		}
	}
	return ts
}

func oracleDecodeClusterSet(r io.Reader) (ClusterSet, error) {
	var set ClusterSet
	d, err := newOracleDecoder(r, kindClusterSet)
	if err != nil {
		return set, err
	}
	n := d.count(1)
	if d.err == nil && n == 0 {
		d.fail("empty clustree set")
	}
	for i := 0; i < n; i++ {
		t := d.clusTree()
		if d.err != nil {
			return ClusterSet{}, d.err
		}
		set.Trees = append(set.Trees, t)
	}
	if d.boolv() {
		d.fail("the pyramidal store slot is retired")
	}
	set.Clock = d.i64()
	if err := d.done(); err != nil {
		return ClusterSet{}, err
	}
	return set, nil
}

type oracleDecoder struct {
	b   *bytes.Reader
	err error
}

// newOracleDecoder reads and verifies the frame (magic, version, length,
// checksum) and the kind byte, returning a decoder positioned at the
// kind-specific payload.
func newOracleDecoder(r io.Reader, wantKind byte) (*oracleDecoder, error) {
	var head [16]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if !bytes.Equal(head[:4], magic[:]) {
		return nil, ErrBadMagic
	}
	v := binary.LittleEndian.Uint32(head[4:8])
	if v != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint64(head[8:16])
	if n > maxPayload {
		return nil, fmt.Errorf("%w: declared payload %d bytes", ErrChecksum, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrTruncated, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sum[:]) {
		return nil, ErrChecksum
	}
	d := &oracleDecoder{b: bytes.NewReader(payload)}
	if kind := d.u8(); d.err == nil && kind != wantKind {
		return nil, fmt.Errorf("persist: snapshot kind %d, want %d", kind, wantKind)
	}
	return d, d.err
}

func (d *oracleDecoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: "+format, args...)
	}
}

func (d *oracleDecoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	v, err := d.b.ReadByte()
	if err != nil {
		d.fail("unexpected end of payload")
	}
	return v
}

// boolv: finding 1.
func (d *oracleDecoder) boolv() bool {
	v := d.u8()
	if v > 1 {
		d.fail("flag byte %d", v)
	}
	return v == 1
}

// done: finding 2.
func (d *oracleDecoder) done() error {
	if d.err == nil && d.b.Len() != 0 {
		d.fail("%d bytes after the model", d.b.Len())
	}
	return d.err
}

// dim: finding 3.
func (d *oracleDecoder) dim() int {
	v := d.i64()
	if d.err == nil && (v < 1 || v > maxDim) {
		d.fail("dimensionality %d", v)
		return 0
	}
	return int(v)
}

func (d *oracleDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(d.b, b[:]); err != nil {
		d.fail("unexpected end of payload")
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (d *oracleDecoder) i64() int64   { return int64(d.u64()) }
func (d *oracleDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a collection length and bounds it by what the remaining
// payload could possibly hold (elemBytes per element), so a corrupt
// length cannot force a huge allocation.
func (d *oracleDecoder) count(elemBytes int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if max := uint64(d.b.Len()/elemBytes) + 1; n > max {
		d.fail("declared count %d exceeds payload", n)
		return 0
	}
	return int(n)
}

func (d *oracleDecoder) floats(n int) []float64 {
	if d.err != nil || n < 0 || n > d.b.Len()/8+1 {
		d.fail("bad vector length %d", n)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *oracleDecoder) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.b, b); err != nil {
		d.fail("unexpected end of payload")
		return ""
	}
	return string(b)
}

func (d *oracleDecoder) config() (c core.Config, forced bool, frac float64) {
	c.Dim = d.dim()
	c.MinFanout = int(d.i64())
	c.MaxFanout = int(d.i64())
	c.MinLeaf = int(d.i64())
	c.MaxLeaf = int(d.i64())
	name := d.str()
	forced, frac = d.boolv(), d.f64()
	if d.err == nil && name != "gaussian" {
		d.fail("Kernel %s is retired, want gaussian", name)
	}
	return
}

func (d *oracleDecoder) cf(dim int) stats.CF {
	return stats.CF{N: d.f64(), LS: d.floats(dim), SS: d.floats(dim)}
}

// decayState reads the decay block; the retired reference epoch must
// equal the epoch.
func (d *oracleDecoder) decayState() (opts core.DecayOptions, epoch int64) {
	opts.Lambda = d.f64()
	opts.MinWeight = d.f64()
	epoch = d.i64()
	if ref := d.i64(); d.err == nil && ref != epoch {
		d.fail("ReferenceEpoch %d is retired, want %d", ref, epoch)
	}
	return
}

// leafWeights reads the optional weight vector of a decayed leaf.
func (d *oracleDecoder) leafWeights(points int) []float64 {
	if !d.boolv() {
		return nil
	}
	return d.floats(points)
}

func (d *oracleDecoder) multiTree(balanced bool) *core.MultiTree {
	cfg, forced, frac := d.config()
	dopts, epoch := d.decayState()
	var mopts core.MultiOptions
	mopts.PooledVariance = d.boolv()
	if d.boolv() {
		d.fail("entropy-weighted descent priority is retired")
	}
	if !forced {
		d.fail("ForcedReinsert false is retired, want true")
	}
	if frac != 0.3 {
		d.fail("ReinsertFraction %v is retired, want 0.3", frac)
	}
	nl := d.count(8)
	labels := make([]int, nl)
	for i := range labels {
		labels[i] = int(d.i64())
	}
	counts := d.floats(nl)
	if d.err != nil {
		return nil
	}
	root := d.multiNode(cfg.Dim)
	if d.err != nil {
		return nil
	}
	t, derive, err := core.RebuildMultiTree(cfg, mopts, labels, root, counts, balanced)
	if err != nil {
		d.fail("rebuild multi tree: %v", err)
		return nil
	}
	derive()
	if err := t.RestoreDecayState(dopts, epoch); err != nil {
		d.fail("rebuild multi tree: %v", err)
		return nil
	}
	return t
}

func (d *oracleDecoder) multiNode(dim int) *core.MultiNode {
	tag := d.u8()
	if d.err != nil {
		return nil
	}
	switch tag {
	case 0:
		n := d.count(8 + 8*dim)
		pts := make([]core.LabeledPoint, 0, n)
		for i := 0; i < n; i++ {
			label := int(d.i64())
			pts = append(pts, core.LabeledPoint{X: d.floats(dim), Label: label})
		}
		ws := d.leafWeights(n)
		if d.err != nil {
			return nil
		}
		leaf, err := core.RebuildMultiLeafWeighted(pts, ws)
		if err != nil {
			d.fail("rebuild leaf: %v", err)
			return nil
		}
		return leaf
	case 1:
		n := d.count(minNodeBytes)
		ents := make([]core.MultiEntry, n)
		for i := range ents {
			ents[i].Child = d.multiNode(dim)
			if d.err != nil {
				return nil
			}
		}
		return core.RebuildMultiInner(ents)
	default:
		d.fail("unknown node tag %d", tag)
		return nil
	}
}

func (d *oracleDecoder) clusConfig() clustree.Config {
	var c clustree.Config
	c.Dim = d.dim()
	c.MaxFanout = int(d.i64())
	if v := d.i64(); v != 2 {
		d.fail("MinFanout %d is retired, want 2", v)
	}
	if v := d.i64(); v != 8 {
		d.fail("MaxLeafEntries %d is retired, want 8", v)
	}
	c.Lambda = d.f64()
	if v := d.f64(); v != 3 {
		d.fail("MergeThreshold %v is retired, want 3", v)
	}
	if v := d.f64(); v != 0.03 {
		d.fail("AbsorbDistance %v is retired, want 0.03", v)
	}
	return c
}

func (d *oracleDecoder) clusTree() *clustree.Tree {
	cfg := d.clusConfig()
	now := d.f64()
	inserts := int(d.i64())
	parked := int(d.i64())
	merges := int(d.i64())
	splits := int(d.i64())
	if d.err != nil {
		return nil
	}
	root := d.clusNode(cfg.Dim)
	if d.err != nil {
		return nil
	}
	t, err := clustree.Rebuild(cfg, root, now, inserts, parked, merges, splits)
	if err != nil {
		d.fail("rebuild clustree: %v", err)
		return nil
	}
	return t
}

func (d *oracleDecoder) clusNode(dim int) *clustree.DumpNode {
	tag := d.u8()
	if d.err != nil {
		return nil
	}
	if tag > 1 {
		d.fail("unknown node tag %d", tag)
		return nil
	}
	n := &clustree.DumpNode{Leaf: tag == 0}
	count := d.count(8 * (2 + 4*dim))
	for i := 0; i < count; i++ {
		ent := clustree.DumpEntry{CF: d.cf(dim), Buffer: d.cf(dim), TS: d.f64()}
		if !n.Leaf {
			ent.Child = d.clusNode(dim)
			if d.err != nil {
				return nil
			}
		}
		n.Entries = append(n.Entries, ent)
	}
	if d.err != nil {
		return nil
	}
	return n
}
