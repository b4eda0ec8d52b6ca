// Package persist implements versioned binary snapshots of trained
// Bayes tree models, so a serving process can warm-start from disk
// instead of re-running bulk loading (minutes of EM for large sets).
//
// The format stores only what cannot be derived — configuration,
// topology and the leaves' observations, labels and weights — with
// float64 values bit-exact. A Bayes tree's inner entry is, by
// invariant, the summary of its child, so a classification snapshot
// stores none (an inner node is its tag, child count and children):
// core.RebuildMultiTree derives them with the tree's own summarize, so a
// reloaded model answers every query digit-identically, and no payload
// can carry a summary that disagrees with its subtree. The cluster set
// is exempt (clustree.go): its inner CFs carry their own timestamps and
// parked buffers.
//
// There is one format, version 3, and three kinds: the sharded set of
// multi-class trees, the cluster set and the per-class forest, whose
// class trees are written by the set's tree codec. A file of any other
// version — the v1/v2 files that stored every inner summary as much as
// one from a future build — is refused with ErrVersion, and a retired
// kind as the wrong kind.
//
// Layout: a 4-byte magic "BTSN", a uint32 format version, a uint64
// payload length, the payload, and a CRC32 (IEEE) of the payload.
// Truncation, bit rot and future-version files are all rejected with
// distinguishable errors before any model state is built. A sharded set
// names each shard section's length, so the sections decode side by side.
//
// The decoder is a cursor over that verified payload as one slice: it
// allocates what it builds (a vector, a node, a point), nothing per
// word, and never more than the input held — a declared length or count
// is checked against the bytes actually there before it sizes anything.
// What decodes encodes back to the same bytes: a flag byte that is not
// 0 or 1, an empty set and bytes after the model are refused.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"bayestree/internal/core"
	"bayestree/internal/stats"
)

// Version is the snapshot format version the encoder writes and the
// only one the decoders read: a decay state per tree, optional leaf
// weight vectors, no inner summaries in the classification kinds, and
// the sharded set's section lengths. Any other version, older or newer,
// is refused with ErrVersion.
const Version = 3

var magic = [4]byte{'B', 'T', 'S', 'N'}

// Snapshot kinds, the first payload byte. Kinds 1, 2 and 4 (the forest
// of the retired per-class tree type, a single multi-class tree and a
// single clustering tree) are retired: their numbers stay unused, so
// such a file is refused as the wrong kind.
const (
	kindMultiSet byte = 3 // sharded set of multi-class trees
	kindForest   byte = 6 // per-class forest of one-class trees (core.Classifier)
)

// Sentinel errors for the distinguishable failure modes of Decode*.
// Wrapped errors carry detail; test with errors.Is.
var (
	// ErrBadMagic means the input is not a Bayes tree snapshot at all.
	ErrBadMagic = errors.New("persist: not a bayestree snapshot")
	// ErrVersion means the snapshot was written in a format version
	// other than Version.
	ErrVersion = errors.New("persist: unsupported snapshot version")
	// ErrChecksum means the payload failed its integrity check.
	ErrChecksum = errors.New("persist: snapshot checksum mismatch")
	// ErrTruncated means the input ended before the declared payload.
	ErrTruncated = errors.New("persist: truncated snapshot")
)

// EncodeClassifier writes a snapshot of the per-class forest classifier.
func EncodeClassifier(w io.Writer, c *core.Classifier) error {
	if c == nil {
		return fmt.Errorf("persist: nil classifier")
	}
	return encodeSized(w, kindForest, func(e *encoder) { e.classifier(c) })
}

// DecodeClassifier reads a classifier snapshot written by
// EncodeClassifier, deriving the inner entries and the class priors so
// the result classifies digit-identically to the saved model.
func DecodeClassifier(r io.Reader) (*core.Classifier, error) {
	d, err := newDecoder(r, kindForest)
	if err != nil {
		return nil, err
	}
	var opts core.ClassifierOptions
	opts.Strategy = core.Strategy(d.u8())
	opts.Priority = core.Priority(d.u8())
	opts.K = int(d.i64())
	n := d.count(8)
	if d.err == nil && (opts.K < 1 || opts.K > n) {
		d.fail("K %d for %d classes", opts.K, n) // NewClassifier would change it
	}
	trees := make([]*core.MultiTree, n)
	for i := 0; i < n && d.err == nil; i++ {
		label := d.i64()
		if trees[i] = d.multiTree(d.boolv()); d.err == nil {
			if ls := trees[i].Labels(); len(ls) != 1 || int64(ls[0]) != label {
				d.fail("class %d section holds classes %v", label, ls)
			}
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	// NewClassifier's checks run before a summary is derived, the priors
	// it takes from the trees' masses after.
	if _, err := core.NewClassifier(trees, opts); err != nil {
		return nil, err
	}
	d.finish()
	return core.NewClassifier(trees, opts)
}

// EncodeMultiTrees writes a snapshot of a sharded set of multi-class
// trees — the serving subsystem's whole model state in one file.
func EncodeMultiTrees(w io.Writer, ts []*core.MultiTree) error {
	if len(ts) == 0 {
		return fmt.Errorf("persist: empty multi tree set")
	}
	for _, t := range ts {
		if t == nil {
			return fmt.Errorf("persist: nil multi tree in set")
		}
	}
	return encodeSized(w, kindMultiSet, func(e *encoder) { e.multiSet(ts) })
}

// DecodeMultiTrees reads a sharded-set snapshot written by
// EncodeMultiTrees. The shard sections decode side by side, in two
// joined rounds of a goroutine each — all are checked before any
// derives a summary — and the first failure in shard order is reported.
func DecodeMultiTrees(r io.Reader) ([]*core.MultiTree, error) {
	d, err := newDecoder(r, kindMultiSet)
	if err != nil {
		return nil, err
	}
	n := d.count(8)
	if d.err == nil && n == 0 {
		d.fail("empty multi tree set")
	}
	ts := make([]*core.MultiTree, n)
	sections, at := make([]decoder, n), d.off+8*n // count bounded 8n by the payload
	for i := range sections {
		if size := d.u64(); size <= uint64(len(d.p)-at) {
			sections[i] = decoder{p: d.p[at : at+int(size)]}
			at += int(size)
		} else {
			d.fail("shard section of %d bytes exceeds payload", size)
		}
	}
	if d.off = at; d.done() != nil {
		return nil, d.err
	}
	inParallel := func(f func(s *decoder, i int)) {
		var wg sync.WaitGroup
		wg.Add(n)
		for i := range sections {
			go func() { defer wg.Done(); f(&sections[i], i) }()
		}
		wg.Wait()
	}
	inParallel(func(s *decoder, i int) { ts[i] = s.multiTree(true); s.done() })
	for i := range sections {
		if err := sections[i].err; err != nil {
			return nil, err
		}
	}
	inParallel(func(s *decoder, _ int) { s.finish() })
	return ts, nil
}

// tempPattern names the temporary files WriteFileAtomic stages renames
// through; RemoveStaleTemps sweeps strays matching it.
const tempPattern = ".bayestree-snap-*"

// WriteFileAtomic writes a snapshot to path durably and atomically:
// write is run against a temporary file in path's directory, the file
// is fsynced and renamed into place, and the directory is fsynced so
// the rename itself survives a crash. Either the old content or the
// complete new content is at path afterwards — never a torn snapshot.
// Every error path removes the temporary file (the deferred remove is a
// no-op only after the successful rename); temp files stranded by a
// crash mid-write are swept by RemoveStaleTemps on the next startup.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPattern)
	if err != nil {
		return fmt.Errorf("persist: write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: write %s: %w", path, err)
	}
	// The directory fsync is what makes the rename itself durable: a
	// snapshot reported durable when this fails could vanish on crash,
	// so errors propagate. Filesystems that categorically refuse to
	// fsync directories (EINVAL/ENOTSUP) are the one excuse — there is
	// nothing further a caller could do.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: sync dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil && !unsupportedSyncError(err) {
		d.Close()
		return fmt.Errorf("persist: sync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("persist: sync dir %s: %w", dir, err)
	}
	return nil
}

// unsupportedSyncError reports whether a directory fsync failed only
// because the filesystem does not support the operation.
func unsupportedSyncError(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}

// RemoveStaleTemps deletes temporary files a crashed WriteFileAtomic
// left behind in dir (a crash between create and rename strands one —
// the in-process error paths clean up after themselves). Call it on
// startup before writing new state; a missing dir is a no-op.
func RemoveStaleTemps(dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, tempPattern))
	if err != nil {
		return fmt.Errorf("persist: sweep temps %s: %w", dir, err)
	}
	var first error
	for _, m := range matches {
		if err := os.Remove(m); err != nil && !os.IsNotExist(err) && first == nil {
			first = fmt.Errorf("persist: sweep temps: %w", err)
		}
	}
	return first
}

// ---------------------------------------------------------------------
// encoder

// encoder builds one framed snapshot in p: sixteen header bytes flush
// fills in, the payload, the checksum flush appends. A sizing encoder
// (p nil) runs the same walk and only counts, so encodeSized can hand
// the real one a buffer of exactly the frame's size: a checkpoint
// encodes under every shard lock, and growing a buffer by doubling
// allocated three times the snapshot to produce it.
type encoder struct {
	p []byte
	n int // payload bytes a sizing encoder has counted
}

const headerBytes, sumBytes = 16, 4

// encodeSized runs body twice — once to size the payload, once to fill
// a buffer of exactly that size — and writes the frame. body must write
// the same bytes both times (callers hold the model still).
func encodeSized(w io.Writer, kind byte, body func(e *encoder)) error {
	size := &encoder{}
	size.u8(kind)
	body(size)
	e := &encoder{p: make([]byte, headerBytes, headerBytes+size.n+sumBytes)}
	e.u8(kind)
	body(e)
	return e.flush(w)
}

func (e *encoder) u8(v uint8) {
	if e.p == nil {
		e.n++
		return
	}
	e.p = append(e.p, v)
}

func (e *encoder) boolv(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) u64(v uint64) {
	if e.p == nil {
		e.n += 8
		return
	}
	e.p = binary.LittleEndian.AppendUint64(e.p, v)
}

func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) floats(v []float64) {
	if e.p == nil {
		e.n += 8 * len(v)
		return
	}
	for _, f := range v {
		e.p = binary.LittleEndian.AppendUint64(e.p, math.Float64bits(f))
	}
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	if e.p == nil {
		e.n += len(s)
		return
	}
	e.p = append(e.p, s...)
}

func (e *encoder) config(c core.Config) {
	e.i64(int64(c.Dim))
	e.i64(int64(c.MinFanout))
	e.i64(int64(c.MaxFanout))
	e.i64(int64(c.MinLeaf))
	e.i64(int64(c.MaxLeaf))
	e.str("gaussian") // the retired kernel name: the only leaf kernel
	e.boolv(true)     // the retired ForcedReinsert: always on
	e.f64(core.ReinsertFraction)
}

func (e *encoder) cf(cf *stats.CF) {
	e.f64(cf.N)
	e.floats(cf.LS)
	e.floats(cf.SS)
}

// decayState writes the decay block: options, the epoch, and the epoch
// again in the slot of the retired reference epoch (the epoch stored
// weights are valued at, always the epoch since every step sweeps).
func (e *encoder) decayState(opts core.DecayOptions, epoch int64) {
	e.f64(opts.Lambda)
	e.f64(opts.MinWeight)
	e.i64(epoch)
	e.i64(epoch)
}

// leafWeights writes the optional per-observation weight vector of a
// decayed leaf (nil = unit weights, stored as a single absence flag).
func (e *encoder) leafWeights(ws []float64) {
	e.boolv(ws != nil)
	e.floats(ws)
}

// classifier writes the forest: its options, then per class its label,
// its tree's balanced flag and the tree itself.
func (e *encoder) classifier(c *core.Classifier) {
	labels := c.Labels()
	e.u8(uint8(c.Options().Strategy))
	e.u8(uint8(c.Options().Priority))
	e.i64(int64(c.Options().K))
	e.u64(uint64(len(labels)))
	for _, l := range labels {
		t := c.Tree(l)
		e.i64(int64(l))
		e.boolv(t.Balanced())
		e.multiTree(t)
	}
}

func (e *encoder) multiTree(t *core.MultiTree) {
	e.config(t.Config())
	e.decayState(t.DecayState())
	mopts := t.Options()
	e.boolv(mopts.PooledVariance)
	e.boolv(false) // the retired entropy-priority flag
	labels := t.Labels()
	e.u64(uint64(len(labels)))
	for _, l := range labels {
		e.i64(int64(l))
	}
	e.floats(t.Counts())
	e.multiNode(t.Root())
}

func (e *encoder) multiNode(n *core.MultiNode) {
	if n.IsLeaf() {
		e.u8(0)
		pts := n.Points()
		e.u64(uint64(len(pts)))
		for i := range pts {
			e.i64(int64(pts[i].Label))
			e.floats(pts[i].X)
		}
		e.leafWeights(n.Weights())
		return
	}
	e.u8(1)
	ents := n.Entries()
	e.u64(uint64(len(ents)))
	for i := range ents {
		e.multiNode(ents[i].Child)
	}
}

// multiSet writes a sharded set: the shard count, each shard
// section's length in bytes, then the sections.
func (e *encoder) multiSet(ts []*core.MultiTree) {
	e.u64(uint64(len(ts)))
	lengths := len(e.p)
	for range ts {
		e.u64(0)
	}
	for i, t := range ts {
		start := len(e.p)
		e.multiTree(t)
		if e.p != nil { // a sizing encoder has nothing to patch
			binary.LittleEndian.PutUint64(e.p[lengths+8*i:], uint64(len(e.p)-start))
		}
	}
}

// flush frames the payload (magic, version, length, payload, CRC32) and
// writes it out in one Write.
func (e *encoder) flush(w io.Writer) error {
	payload := e.p[headerBytes:]
	copy(e.p[:4], magic[:])
	binary.LittleEndian.PutUint32(e.p[4:8], Version)
	binary.LittleEndian.PutUint64(e.p[8:16], uint64(len(payload)))
	e.p = binary.LittleEndian.AppendUint32(e.p, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(e.p); err != nil {
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------
// decoder

// decoder is a cursor over a payload newDecoder has already read whole,
// length-checked and CRC-verified: every primitive slices p at off, so a
// decode costs what it builds — one allocation per vector, node and
// point, none per word — and nothing it allocates can exceed what the
// input held. The first failure sticks in err; later reads return zero
// values.
type decoder struct {
	p      []byte
	off    int
	err    error
	derive []func() // the rebuilt trees' derivations, run by finish
	kids   []any    // the children stack of the inner nodes being read
}

// maxPayload rejects an absurd declared length before anything is read.
const maxPayload = 1 << 36 // 64 GiB

// newDecoder reads and verifies the frame (magic, version, length,
// checksum) and the kind byte, returning a decoder positioned at the
// kind-specific payload.
func newDecoder(r io.Reader, wantKind byte) (*decoder, error) {
	var head [16]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if [4]byte(head[:4]) != magic {
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
	body, err := readDeclared(r, int(n)+4)
	if err != nil {
		return nil, err
	}
	payload, sum := body[:n], body[n:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(sum) {
		return nil, ErrChecksum
	}
	d := &decoder{p: payload}
	if kind := d.u8(); d.err == nil && kind != wantKind {
		return nil, fmt.Errorf("persist: snapshot kind %d, want %d", kind, wantKind)
	}
	return d, d.err
}

// readDeclared reads the n bytes a header declared without trusting the
// declaration: a source that knows what it has left (a file, an
// in-memory reader) is asked first, so a short one is refused before
// anything is allocated and a whole one is read into one exact buffer;
// any other source is read into a buffer that grows with the bytes
// actually delivered.
func readDeclared(r io.Reader, n int) ([]byte, error) {
	left := -1
	switch src := r.(type) {
	case interface{ Len() int }:
		left = src.Len()
	case *os.File:
		if fi, err := src.Stat(); err == nil && fi.Mode().IsRegular() {
			if at, err := src.Seek(0, io.SeekCurrent); err == nil {
				left = int(max(fi.Size()-at, 0))
			}
		}
	}
	if left >= 0 && left < n {
		return nil, fmt.Errorf("%w: %d bytes declared, %d left", ErrTruncated, n, left)
	}
	first := n
	if left < 0 {
		first = min(n, 64<<10)
	}
	b := make([]byte, 0, first)
	for len(b) < n {
		if len(b) == cap(b) {
			b = append(make([]byte, 0, min(2*cap(b), n)), b...)
		}
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil && len(b) < n {
			return nil, fmt.Errorf("%w: %d of %d bytes: %v", ErrTruncated, len(b), n, err)
		}
	}
	return b, nil
}

func (d *decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: "+format, args...)
	}
}

// left is the number of payload bytes not yet consumed.
func (d *decoder) left() int { return len(d.p) - d.off }

// done fails a payload that was not consumed to its last byte: what a
// snapshot holds beyond its model would be lost by the next encode.
func (d *decoder) done() error {
	if d.err == nil && d.left() != 0 {
		d.fail("%d bytes after the model", d.left())
	}
	return d.err
}

// finish is done, and then derives the inner entries of every tree the
// decode rebuilt: a snapshot is checked whole before it pays for a
// single summary, so a rejected one costs no more than its bytes.
func (d *decoder) finish() error {
	if err := d.done(); err != nil {
		return err
	}
	for _, derive := range d.derive {
		derive()
	}
	return nil
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.left() < 1 {
		d.fail("unexpected end of payload")
		return 0
	}
	v := d.p[d.off]
	d.off++
	return v
}

// boolv reads a flag; any byte but 0 and 1 is refused, so that what
// decodes encodes back to the same bytes.
func (d *decoder) boolv() bool {
	v := d.u8()
	if v > 1 {
		d.fail("flag byte %d", v)
	}
	return v == 1
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.left() < 8 {
		d.fail("unexpected end of payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a collection length and bounds it by what the remaining
// payload could possibly hold (elemBytes ≥ 1 per element), so a corrupt
// length cannot force a huge allocation.
func (d *decoder) count(elemBytes int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.left()/elemBytes) {
		d.fail("declared count %d exceeds payload", n)
		return 0
	}
	return int(n)
}

// floats reads an n-vector: one bounds check against the payload, one
// allocation, one loop.
func (d *decoder) floats(n int) []float64 {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.left()/8 {
		d.fail("vector of %d exceeds payload", n)
		return nil
	}
	out := make([]float64, n)
	src := d.p[d.off : d.off+8*n]
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	d.off += 8 * n
	return out
}

func (d *decoder) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.p[d.off : d.off+n])
	d.off += n
	return s
}

// maxDim bounds a stored dimensionality so that the per-element sizes
// count is given cannot overflow; no model comes near it.
const maxDim = 1 << 24

// dim reads a dimensionality. It is checked here, before the first
// vector is sized by it, not only by the Rebuild that sees it last.
func (d *decoder) dim() int {
	v := d.i64()
	if d.err == nil && (v < 1 || v > maxDim) {
		d.fail("dimensionality %d", v)
		return 0
	}
	return int(v)
}

// config reads a tree's configuration, refuses a kernel other than the
// Gaussian and reads the retired reinsertion slots, which the caller
// checks with fixed only after the retired entropy byte, the older of
// the two refusals.
func (d *decoder) config() (c core.Config, forced bool, frac float64) {
	c.Dim = d.dim()
	c.MinFanout = int(d.i64())
	c.MaxFanout = int(d.i64())
	c.MinLeaf = int(d.i64())
	c.MaxLeaf = int(d.i64())
	name := d.str()
	forced, frac = d.boolv(), d.f64()
	d.fixed("Kernel", name, "gaussian")
	return
}

// fixed refuses a slot of a retired setting that holds anything but
// the value the setting is fixed at.
func (d *decoder) fixed(setting string, got, want any) {
	if d.err == nil && got != want {
		d.fail("%s %v is retired, want %v", setting, got, want)
	}
}

func (d *decoder) cf(dim int) stats.CF {
	return stats.CF{N: d.f64(), LS: d.floats(dim), SS: d.floats(dim)}
}

// children reads an inner node's children onto the decoder's stack and
// returns them, valid until the next read: the caller sizes its entries
// by the children that decoded, since a declared count reserving them
// would reserve again at every level of a forged chain, against the same
// remaining bytes.
func (d *decoder) children(child func() any) []any {
	n, base := d.count(minNodeBytes), len(d.kids)
	for i := 0; i < n && d.err == nil; i++ {
		d.kids = append(d.kids, child())
	}
	kids := d.kids[base:]
	d.kids = d.kids[:base]
	return kids
}

// decayState reads the decay block; the retired reference epoch must
// equal the epoch.
func (d *decoder) decayState() (opts core.DecayOptions, epoch int64) {
	opts.Lambda = d.f64()
	opts.MinWeight = d.f64()
	epoch = d.i64()
	d.fixed("ReferenceEpoch", d.i64(), epoch)
	return
}

// leafWeights reads the optional weight vector of a decayed leaf.
func (d *decoder) leafWeights(points int) []float64 {
	if !d.boolv() {
		return nil
	}
	return d.floats(points)
}

// minNodeBytes is the smallest encoded node: a tag and an entry count.
const minNodeBytes = 1 + 8

// multiTree reads one tree; balanced is the flag a forest stores per
// class tree (a set's trees are balanced).
func (d *decoder) multiTree(balanced bool) *core.MultiTree {
	cfg, forced, frac := d.config()
	dopts, epoch := d.decayState()
	var mopts core.MultiOptions
	mopts.PooledVariance = d.boolv()
	if d.boolv() {
		d.fail("entropy-weighted descent priority is retired")
	}
	d.fixed("ForcedReinsert", forced, true)
	d.fixed("ReinsertFraction", frac, core.ReinsertFraction)
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
	if err == nil {
		err = t.RestoreDecayState(dopts, epoch)
	}
	if err != nil {
		d.fail("rebuild multi tree: %v", err)
		return nil
	}
	d.derive = append(d.derive, derive)
	return t
}

func (d *decoder) multiNode(dim int) *core.MultiNode {
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
		kids := d.children(func() any { return d.multiNode(dim) })
		if d.err != nil {
			return nil
		}
		ents := make([]core.MultiEntry, len(kids))
		for i, c := range kids {
			ents[i].Child = c.(*core.MultiNode)
		}
		return core.RebuildMultiInner(ents)
	default:
		d.fail("unknown node tag %d", tag)
		return nil
	}
}
