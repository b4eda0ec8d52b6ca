// Package wal implements the segmented write-ahead log under the
// serving subsystem's durability layer: an append-only record log split
// into numbered segment files, written per shard so the log inherits
// the engine's sharded write path (appends happen under the owning
// shard's write lock and never contend across shards).
//
// Record framing is length-prefixed and checksummed: a 4-byte little-
// endian payload length, a 4-byte CRC32 (IEEE) of the payload, then the
// payload itself. The framing makes the two crash signatures
// distinguishable on replay: a torn tail — a record whose bytes stop at
// the end of the final segment, the signature of a crash mid-append —
// is dropped and counted, while a bad checksum in the middle of the log
// (bit rot, segment truncation by an operator) fails loudly with
// ErrCorrupt rather than silently replaying a prefix. A damaged frame
// is a torn tail only if it is the final record: an intact record after
// it in the segment makes it corruption, whatever its length field
// claims.
//
// Durability is group-committed: every Append is one write syscall, so
// an acked record always survives a process crash (it is in the OS page
// cache), and fsync — what makes records survive power loss — runs
// either inline per append (FsyncEvery 0) or on a background ticker
// that commits every append of the last interval with one fsync
// (FsyncEvery > 0). The interval is therefore the bounded power-loss
// window the operator trades for ingest throughput.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrCorrupt means a record failed its integrity check somewhere other
// than the tail of the final segment — real corruption, not a torn
// write — so replay cannot trust anything after it. Test with
// errors.Is.
var ErrCorrupt = errors.New("wal: corrupt record")

// frameHeader is the per-record overhead: 4 bytes payload length + 4
// bytes CRC32.
const frameHeader = 8

// FrameBytes is what a record of n payload bytes occupies in a segment.
func FrameBytes(n int) int64 { return int64(frameHeader + n) }

// maxRecord bounds a single record's payload, rejecting absurd declared
// lengths before any allocation when a frame header is itself corrupt.
const maxRecord = 16 << 20

// segmentBytes rotates the active segment once it holds this many
// bytes. Segments are the unit of truncation: a checkpoint rotates and
// then deletes whole segments. It is a variable only so that tests can
// lower it.
var segmentBytes int64 = 4 << 20

// Options parameterise a log.
type Options struct {
	// FsyncEvery is the group-commit interval: 0 fsyncs inline on every
	// append (synchronous durability), > 0 runs a background committer
	// that fsyncs the segment at most once per interval, amortising the
	// fsync across every append in it — the interval bounds how much
	// acked data a power loss can take (a mere process crash loses
	// nothing either way).
	FsyncEvery time.Duration
	// Start is the lowest segment index appends may use (0 means 1): the
	// first segment a replay of this log reads. A checkpoint that seals
	// the active segment and removes the ones below its successor leaves
	// no file behind, so only Start keeps the next append from landing
	// in a segment below where replay begins.
	Start uint64
}

// Stats is a point-in-time summary of a log's lifetime counters.
type Stats struct {
	// Appends is the number of records appended.
	Appends int64
	// Syncs is the number of fsyncs issued — under group commit the
	// ratio Appends/Syncs is the amortisation factor.
	Syncs int64
	// Bytes is the total framed bytes written.
	Bytes int64
}

// segmentFile is the slice of *os.File the log writes through. It
// exists as a seam: fault-injection tests swap openSegmentFile to wrap
// the segment in a file that fails on the Nth write or fsync, driving
// the partial-append rollback and sticky-poison paths that real disks
// only exercise when they are dying.
type segmentFile interface {
	io.Writer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// openSegmentFile wraps a freshly created segment file. Production
// leaves it as the identity; tests override it to inject faults.
var openSegmentFile = func(f *os.File) segmentFile { return f }

// Log is one shard's append log, safe for concurrent use. Open it with
// Open, append with Append, and bracket checkpoints with Rotate, Sync
// and RemoveBefore.
type Log struct {
	dir  string
	opts Options

	mu   sync.Mutex
	f    segmentFile // nil until the active segment's first append creates it
	seg  uint64
	size int64
	// dirty marks unsynced appends in f; sealed holds the segments
	// rotated away with unsynced appends, which the next sync commits
	// before f; dirOwed marks a created segment whose directory entry no
	// sync has made durable yet.
	dirty   bool
	sealed  []segmentFile
	dirOwed bool
	closed  bool
	syncErr error // first background fsync failure, surfaced on the next Append/Sync

	stop chan struct{}
	done chan struct{}

	appends atomic.Int64
	syncs   atomic.Int64
	bytes   atomic.Int64
}

// Open opens dir for appending, creating it if needed. If a previous
// segment exists its torn tail (the signature of a crash mid-append) is
// truncated away first, and appends then start in a fresh segment — so
// an Open after replay never interleaves new records with a dropped
// partial one. The fresh segment — one past the last, and at least
// opts.Start — has its file created by the first Append, so a process
// that opens and exits without writing leaves no file. Mid-log
// corruption in the last segment fails with ErrCorrupt.
func Open(dir string, opts Options) (*Log, error) {
	opts.Start = max(opts.Start, 1)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := opts.Start
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		if err := repairTail(segPath(dir, last)); err != nil {
			return nil, err
		}
		next = max(next, last+1)
	}
	l := &Log{dir: dir, opts: opts, seg: next}
	if opts.FsyncEvery > 0 {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.commit(opts.FsyncEvery, l.stop, l.done)
	}
	return l, nil
}

// commit is the group-commit loop: one fsync per interval covers every
// append since the last one. The channels are passed in because Close
// nils l.stop under the lock to hand shutdown to exactly one closer.
func (l *Log) commit(every time.Duration, stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			l.Sync()
		}
	}
}

// Append frames and writes one record. With FsyncEvery 0 the record is
// fsynced before Append returns; otherwise it is committed by the next
// group-commit tick (call Sync to force it). Either way the sync that
// first commits a new segment also fsyncs the directory, so no record is
// acknowledged as fsynced before its segment's directory entry is
// durable. The payload is written with a single write syscall, so an
// acked record survives a process crash even before its fsync.
func (l *Log) Append(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("wal: record %d bytes exceeds max %d", len(payload), maxRecord)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.syncErr != nil {
		return fmt.Errorf("wal: background sync: %w", l.syncErr)
	}
	if l.f == nil {
		f, err := os.OpenFile(segPath(l.dir, l.seg), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.f, l.dirOwed = openSegmentFile(f), true
	}
	if _, err := l.f.Write(frame); err != nil {
		// A partial frame is only recoverable while it is the segment's
		// tail: cut it back off (and reseek) so a later append cannot
		// land after it and turn a torn tail into mid-segment
		// corruption. If even that fails, poison the log — every further
		// append reports the failure instead of corrupting the segment.
		if terr := l.truncateTailLocked(); terr != nil && l.syncErr == nil {
			l.syncErr = fmt.Errorf("partial append not rolled back: %v (write: %v)", terr, err)
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	l.appends.Add(1)
	l.bytes.Add(int64(len(frame)))
	l.dirty = true
	if l.opts.FsyncEvery == 0 {
		// An inline fsync failure fails this append only: the frame is
		// intact, and the next append's sync retries it.
		if err := l.commitLocked(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	if l.size >= segmentBytes {
		return l.sealLocked()
	}
	return nil
}

// truncateTailLocked rolls the active segment back to the last fully
// written frame after a failed append: truncate to the known-good size
// and reseek so the next write lands there rather than beyond a hole.
func (l *Log) truncateTailLocked() error {
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// Sync fsyncs what is not yet durable: the segments Rotate sealed with
// unsynced appends, then the active segment's unsynced appends, then the
// directory if a segment was created since it was last synced — in that
// order, so nothing becomes durable before what was appended ahead of
// it. Safe to call concurrently with Append.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// syncLocked is Sync under l.mu: a failure poisons the log, so every
// later Append reports it.
func (l *Log) syncLocked() error {
	if l.closed || (!l.dirty && len(l.sealed) == 0 && !l.dirOwed) {
		return l.syncErr
	}
	if err := l.commitLocked(); err != nil {
		if l.syncErr == nil {
			l.syncErr = err
		}
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// commitLocked runs the fsyncs Sync orders — sealed segments, the active
// segment, the directory — and is the only place that orders them.
func (l *Log) commitLocked() error {
	for len(l.sealed) > 0 {
		if err := l.sealed[0].Sync(); err != nil {
			return err
		}
		l.syncs.Add(1)
		l.sealed[0].Close()
		l.sealed = l.sealed[1:]
	}
	if l.dirty {
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.dirty = false
		l.syncs.Add(1)
	}
	if l.dirOwed {
		if err := syncDir(l.dir); err != nil {
			return err
		}
		l.dirOwed = false
	}
	return nil
}

// Rotate ends the active segment and returns the index of the next one —
// the first segment a replay after this point must read. It runs no
// fsync and creates no file: the next Append creates the segment, and
// the next Sync commits the sealed one's unsynced tail, so a checkpoint
// can rotate under the shard locks and sync after releasing them. An
// empty or never-written active segment is already that segment: replay
// from it reads what replay from its successor would, so Rotate returns
// its index.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	if l.size == 0 {
		return l.seg, nil
	}
	if err := l.sealLocked(); err != nil {
		return 0, err
	}
	return l.seg, nil
}

// sealLocked moves appends on to the next segment. A sealed segment with
// unsynced appends waits in sealed for the next sync; a clean one is
// closed now.
func (l *Log) sealLocked() error {
	if l.dirty {
		l.sealed = append(l.sealed, l.f)
	} else if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	l.f, l.seg, l.size, l.dirty = nil, l.seg+1, 0, false
	return nil
}

// RemoveBefore deletes every segment with index < seg — the truncation
// half of a checkpoint, safe at any point because the manifest already
// directs replay to start at seg. The active segment is never removed.
func (l *Log) RemoveBefore(seg uint64) error {
	l.mu.Lock()
	active := l.seg
	l.mu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	var first error
	for _, s := range segs {
		if s >= seg || s == active {
			continue
		}
		if err := os.Remove(segPath(l.dir, s)); err != nil && first == nil {
			first = fmt.Errorf("wal: remove segment %d: %w", s, err)
		}
	}
	return first
}

// NextSegment reports the segment index a future Open of dir without a
// Start would begin appending into: one past the highest existing
// segment, or 1 for a missing or empty directory — an Open never
// appended to created nothing, so it leaves the answer unchanged. An
// Open given this index as its Start begins there. Replication bootstrap uses
// it to point a freshly written manifest's ShardStart at segments that
// do not exist yet, so replay after the shipped snapshot reads nothing
// stale.
func NextSegment(dir string) (uint64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 1, nil
		}
		return 0, fmt.Errorf("wal: %w", err)
	}
	if len(segs) == 0 {
		return 1, nil
	}
	return segs[len(segs)-1] + 1, nil
}

// Segment returns the active segment's index.
func (l *Log) Segment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// Stats returns the lifetime append/sync/byte counters.
func (l *Log) Stats() Stats {
	return Stats{Appends: l.appends.Load(), Syncs: l.syncs.Load(), Bytes: l.bytes.Load()}
}

// Close stops the group-commit loop, fsyncs any unsynced appends and
// closes the active segment. Safe to call more than once, including
// concurrently: taking l.stop under the lock hands the channel to
// exactly one closer.
func (l *Log) Close() error {
	l.mu.Lock()
	stop := l.stop
	l.stop = nil
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	for _, f := range l.sealed {
		f.Close() // only after a failed sync, which err reports
	}
	l.sealed = nil
	if l.f != nil {
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("wal: close: %w", cerr)
		}
	}
	l.f = nil
	return err
}

// ---------------------------------------------------------------------
// reading

// Reader iterates the records of a log directory in append order,
// starting at a given segment. A torn tail at the end of the final
// segment is dropped (counted by Dropped), any other integrity failure
// returns ErrCorrupt.
type Reader struct {
	dir     string
	segs    []uint64
	idx     int    // next segment in segs to load
	buf     []byte // current segment contents
	off     int
	last    bool // buf is the final segment
	dropped int
	done    bool
}

// OpenReader opens dir for replay from segment start onward. A missing
// or empty directory yields a reader that is immediately exhausted —
// WAL-less startup is not an error.
func OpenReader(dir string, start uint64) (*Reader, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return &Reader{done: true}, nil
		}
		return nil, err
	}
	keep := segs[:0]
	for _, s := range segs {
		if s >= start {
			keep = append(keep, s)
		}
	}
	return &Reader{dir: dir, segs: keep}, nil
}

// Next returns the next record's payload, io.EOF when the log is
// exhausted (including after a dropped torn tail), or ErrCorrupt. The
// returned slice aliases the reader's segment buffer and is valid until
// the next call.
func (r *Reader) Next() ([]byte, error) {
	for {
		if r.done {
			return nil, io.EOF
		}
		if r.buf == nil || r.off >= len(r.buf) {
			if r.idx >= len(r.segs) {
				r.done = true
				return nil, io.EOF
			}
			buf, err := os.ReadFile(segPath(r.dir, r.segs[r.idx]))
			if err != nil {
				return nil, fmt.Errorf("wal: read segment %d: %w", r.segs[r.idx], err)
			}
			r.buf, r.off = buf, 0
			r.last = r.idx == len(r.segs)-1
			r.idx++
			continue
		}
		payload, n, torn, err := parseRecord(r.buf[r.off:], r.last)
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d offset %d", err, r.segs[r.idx-1], r.off)
		}
		if torn {
			r.dropped++
			r.done = true
			return nil, io.EOF
		}
		r.off += n
		return payload, nil
	}
}

// Dropped reports how many torn-tail records were dropped.
func (r *Reader) Dropped() int { return r.dropped }

// Close releases the reader's segment buffer.
func (r *Reader) Close() error {
	r.buf = nil
	r.done = true
	return nil
}

// parseRecord parses one frame from buf. torn reports a record whose
// bytes stop at the end of buf when buf is the final segment — the
// crash-mid-append signature replay drops; the same shape anywhere else
// is ErrCorrupt. A frame that runs to or past the end of the final
// segment is torn only if it is the final record: a CRC-valid frame
// starting after it (laterFrame) means its length field or checksum was
// damaged mid-log, and dropping it would drop the acked records behind
// it.
func parseRecord(buf []byte, final bool) (payload []byte, n int, torn bool, err error) {
	if len(buf) < frameHeader {
		if final {
			return nil, 0, true, nil
		}
		return nil, 0, false, ErrCorrupt
	}
	length := binary.LittleEndian.Uint32(buf[0:4])
	if length > maxRecord {
		return nil, 0, false, ErrCorrupt
	}
	end := frameHeader + int(length)
	if end > len(buf) {
		if final && !laterFrame(buf) {
			return nil, 0, true, nil
		}
		return nil, 0, false, ErrCorrupt
	}
	payload = buf[frameHeader:end]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:8]) {
		// A bad CRC on the very last record of the final segment is a
		// torn payload write; earlier it is corruption.
		if final && end == len(buf) && !laterFrame(buf) {
			return nil, 0, true, nil
		}
		return nil, 0, false, ErrCorrupt
	}
	return payload, end, false, nil
}

// laterFrame reports whether a CRC-valid frame with a non-empty payload
// starts anywhere in buf after its first byte. Only a damaged tail pays
// for the scan. An empty payload is no evidence: its checksum is zero,
// so any eight zero bytes — inside a torn payload, say — read as one.
func laterFrame(buf []byte) bool {
	for off := 1; off+frameHeader < len(buf); off++ {
		length := int(binary.LittleEndian.Uint32(buf[off:]))
		body := buf[off+frameHeader:]
		if length > 0 && length <= len(body) &&
			crc32.ChecksumIEEE(body[:length]) == binary.LittleEndian.Uint32(buf[off+4:]) {
			return true
		}
	}
	return false
}

// repairTail truncates a torn record off the end of the segment at
// path, so future appends and replays see a clean log. Corruption that
// is not a torn tail returns ErrCorrupt.
func repairTail(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	off := 0
	for off < len(buf) {
		_, n, torn, err := parseRecord(buf[off:], true)
		if err != nil {
			return fmt.Errorf("%w: %s offset %d", err, filepath.Base(path), off)
		}
		if torn {
			break
		}
		off += n
	}
	if off == len(buf) {
		return nil
	}
	if err := os.Truncate(path, int64(off)); err != nil {
		return fmt.Errorf("wal: repair %s: %w", filepath.Base(path), err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: repair %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: repair %s: %w", filepath.Base(path), err)
	}
	return nil
}

// ---------------------------------------------------------------------
// segment files

// segPath names segment idx inside dir: 16 zero-padded decimal digits
// keep lexical and numeric order identical.
func segPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016d.wal", idx))
}

// listSegments returns the segment indices present in dir, ascending.
// Non-segment files are ignored.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || len(name) != 16+4 || name[16:] != ".wal" {
			continue
		}
		var idx uint64
		ok := true
		for _, c := range name[:16] {
			if c < '0' || c > '9' {
				ok = false
				break
			}
			idx = idx*10 + uint64(c-'0')
		}
		if !ok || idx == 0 {
			continue
		}
		segs = append(segs, idx)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// syncDir fsyncs a directory so created/renamed files in it survive a
// crash. Filesystems that refuse to fsync directories (EINVAL/ENOTSUP)
// are excused — there is nothing further to do.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
