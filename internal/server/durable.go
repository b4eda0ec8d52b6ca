package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bayestree/internal/persist"
	"bayestree/internal/wal"
)

// This file is the durability layer threaded through the generic
// engine: every logged workload gets crash-safe ingest from the same
// machinery. The write path appends a workload-encoded record to the
// owning shard's write-ahead log under the shard write lock (log
// before apply, pre-validated so the apply cannot fail), recovery is
// load-latest-snapshot + replay-WAL-tail, and a checkpoint is a cut
// taken under every shard lock and a commit made after they are
// released — each step ordered so that a crash at any instant leaves the
// manifest naming a complete (snapshot, WAL-start) pair:
//
//	cut (all shard locks)  — rotate every log (no fsync, no file create),
//	                         attach a /replicate subscriber, encode the
//	                         snapshot into memory
//	sync                   — fsync the sealed segments' unsynced tails
//	snapshot               — the encoded bytes, atomic via WriteFileAtomic
//	manifest               — atomic; the commit point
//	truncate + old-snapshot removal — pure garbage collection
//
// A crash before the manifest write replays from the previous pair, which
// still lists the sealed segments; a log fsyncs those before anything
// appended after them, so no record after the cut is durable while one
// before it is not. A segment created after the cut has its directory
// entry fsynced by its own first sync, so none of its records is acked
// as fsynced first. Writers wait for the cut only.
//
// Drain, bootstrap, eviction, promotion and /replicate checkpoint, and so
// does the log: the append that brings the bytes since the last cut to
// max(snapshot bytes / ckptShare, ckptFloor) starts one in the
// background. A record replays in about eight times an equal-sized
// observation's decode, so a restart replays for at most about twice the
// decode of its snapshot, plus the floor's ≈ 1,800 Pendigits records.
//
// Records are replayed digit-identically: the classification record
// carries (label, x) — shard routing is content-hashed, so per-shard
// replay reproduces the exact insert sequence — and the clustering
// record carries (timestamp, granted budget, x), because a ClusTree
// descent is deterministic given those. The shard logs replay side by
// side, each in its own order, which is its apply order.

// ckptShare and ckptFloor set the log-size trigger (see above);
// ckptFloor is a variable only so that tests can lower it.
const ckptShare = 4

var ckptFloor int64 = 256 << 10

// DurabilityOptions configure the write-ahead log + checkpoint layer a
// served workload can run over.
type DurabilityOptions struct {
	// Dir is the durability root: the MANIFEST, snapshot-<generation>
	// files and per-shard WAL segment directories live here.
	Dir string
	// FsyncEvery is the WAL group-commit interval: 0 fsyncs inline on
	// every append, > 0 commits every append of the interval with one
	// background fsync (the interval bounds power-loss exposure; a
	// process crash loses nothing either way).
	FsyncEvery time.Duration
}

// The states in which a well-formed write is refused. The HTTP layer
// answers the first three 503 + Retry-After — what its guard answers a
// request that arrives in the same state — and errWAL 500; every other
// insert error is the caller's (400).
var (
	// errRecovering: WAL replay is still rebuilding the model.
	errRecovering = errors.New("server: recovering (WAL replay in progress)")
	// errFollower: this process is a read-only replica.
	errFollower = errors.New("server: read-only follower")
	// errFenced: a newer primary exists.
	errFenced = errors.New("server: fenced")
	// errWAL: the write-ahead log refused the append.
	errWAL = errors.New("server: wal")
)

// durState is the engine's durability state: the logs, the manifest
// they continue, and the recovery/replay accounting.
type durState struct {
	opts     DurabilityOptions
	manifest persist.Manifest
	hadState bool
	// lock is the flock-held LOCK file that makes the durability
	// directory single-writer; the kernel releases it on any process
	// death.
	lock *os.File
	// logs is nil until recovery completes; writes are rejected before
	// that (replay applies records directly).
	logs []*wal.Log
	// ckptMu serializes checkpoints (each bumps the generation) and
	// guards manifest and epoch.
	ckptMu     sync.Mutex
	recovering atomic.Bool
	replayed   atomic.Int64
	dropped    atomic.Int64
	// epoch is the replication fencing token carried by the manifest;
	// Promote bumps it. Guarded by ckptMu.
	epoch uint64
	// hub fans durable appends out to /replicate subscribers; see
	// replication.go.
	hub *replHub
	// sinceCut is the framed WAL bytes logged since the last cut (a
	// replayed tail's included) and snapBytes the last snapshot's size;
	// backoff is what a failed background checkpoint adds to the trigger.
	// bgMu guards bgBusy (a background checkpoint is in flight), bgClosed
	// (CloseDurability refuses new ones) and bgErr (the last background
	// checkpoint's failure, nil once one succeeds); bg waits for it.
	sinceCut, snapBytes, backoff atomic.Int64
	bgMu                         sync.Mutex
	bgBusy, bgClosed             bool
	bgErr                        error
	bg                           sync.WaitGroup
	// checkpoints counts the checkpoints cut; lockHold is the longest any
	// of them held every shard lock, in nanoseconds.
	checkpoints, lockHold atomic.Int64
	// took is where the restart's wall time went, in nanoseconds: the
	// snapshot decode (measured by openDurable), then Recover's replay,
	// mirror builds and closing checkpoint, and the sum with what lies
	// between them. /stats reads them while recovery writes them.
	took struct{ decode, replay, mirror, checkpoint, recover atomic.Int64 }
}

// shardWALDir names shard i's segment directory under the durability
// root.
func shardWALDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// snapshotName names the checkpoint snapshot for a generation.
func snapshotName(gen uint64) string {
	return fmt.Sprintf("snapshot-%08d.btsn", gen)
}

// durOpen is what opening a durability directory yields: the manifest
// (if any), the held directory lock and any persisted fencing state.
type durOpen struct {
	manifest    persist.Manifest
	hadState    bool
	lock        *os.File
	fencedEpoch uint64
	hadFenced   bool
	// decodeTook is what decoding the checkpoint snapshot took and
	// snapBytes its size (both zero for a bootstrapped model).
	decodeTook time.Duration
	snapBytes  int64
}

// attachDurability arms the engine's durability state: the server is
// "recovering" (writes rejected, /readyz 503) until Recover replays
// the WAL tail and opens the logs. A FENCED marker left by a previous
// incarnation re-fences the process unless the manifest has since
// caught up to the fencing epoch (i.e. this directory was itself
// promoted).
func (e *engine[M]) attachDurability(opts DurabilityOptions, do durOpen) {
	e.dur = &durState{opts: opts, manifest: do.manifest, hadState: do.hadState, lock: do.lock}
	e.dur.epoch = do.manifest.Epoch
	for i, n := range do.manifest.ShardWrites {
		e.shards[i].writes = n
	}
	e.dur.hub = newReplHub()
	e.dur.took.decode.Store(int64(do.decodeTook))
	e.dur.snapBytes.Store(do.snapBytes)
	e.dur.recovering.Store(true)
	if do.hadFenced {
		if do.manifest.Epoch >= do.fencedEpoch {
			clearFenced(opts.Dir)
		} else {
			e.repl.fencedBy.Store(do.fencedEpoch)
			e.repl.fenced.Store(true)
		}
	}
}

// Recovering reports whether the engine is still replaying its WAL —
// writes are rejected and /readyz answers 503 until it completes.
func (e *engine[M]) Recovering() bool {
	return e.dur != nil && e.dur.recovering.Load()
}

// durableOn reports whether inserts must be logged: durability is
// configured and recovery has opened the logs.
func (e *engine[M]) durableOn() bool {
	return e.dur != nil && e.dur.logs != nil
}

// logAppend appends a record to shard idx's WAL and ships it to any
// attached /replicate subscribers. Callers hold the shard write lock,
// so the per-shard log order is exactly the apply order — and because
// the publish happens under the same lock, the hub's shipped counter
// is a consistent global LSN: a checkpoint's withAllRead (all shard
// locks held) excludes every append, so a subscriber attached inside
// it sees precisely the records after its snapshot. The append that
// brings the log past the checkpoint limit starts a background
// checkpoint.
func (e *engine[M]) logAppend(idx int, payload []byte) error {
	d := e.dur
	if err := d.logs[idx].Append(payload); err != nil {
		return fmt.Errorf("%w: %w", errWAL, err)
	}
	d.hub.publish(idx, payload)
	if d.sinceCut.Add(wal.FrameBytes(len(payload))) >= d.limit()+d.backoff.Load() {
		e.checkpointBehind()
	}
	return nil
}

// limit is how many framed bytes the log may take since the last cut
// before a checkpoint folds them into a snapshot.
func (d *durState) limit() int64 { return max(d.snapBytes.Load()/ckptShare, ckptFloor) }

// checkpointBehind starts a background checkpoint unless one is in
// flight or CloseDurability has begun. A failed one is reported in
// /stats, and since its cut adds its bytes back, the next try waits for
// another limit's worth of log: a persistent failure (a full disk) must
// not make every append start another all-shard-lock encode.
func (e *engine[M]) checkpointBehind() {
	d := e.dur
	d.bgMu.Lock()
	defer d.bgMu.Unlock()
	if d.bgBusy || d.bgClosed {
		return
	}
	d.bgBusy = true
	d.bg.Add(1)
	go func() {
		defer d.bg.Done()
		err := e.Checkpoint()
		d.bgMu.Lock()
		d.bgBusy, d.bgErr = false, err
		if err != nil {
			d.backoff.Store(d.sinceCut.Load())
		}
		d.bgMu.Unlock()
	}()
}

// shardLogStart is the first WAL segment shard i's replay must read.
func (e *engine[M]) shardLogStart(i int) uint64 {
	d := e.dur
	if d.hadState && i < len(d.manifest.ShardStart) {
		return d.manifest.ShardStart[i]
	}
	return 1
}

// openLogs opens every shard's WAL for appending (repairing torn tails,
// starting fresh segments) — the hand-off from replay to serving. Appends
// start no lower than the manifest's ShardStart: a checkpoint can leave a
// shard directory with no segment file at all, and records appended below
// ShardStart would be skipped by the next replay.
func (e *engine[M]) openLogs() error {
	d := e.dur
	logs := make([]*wal.Log, len(e.shards))
	for i := range e.shards {
		lg, err := wal.Open(shardWALDir(d.opts.Dir, i), wal.Options{FsyncEvery: d.opts.FsyncEvery, Start: e.shardLogStart(i)})
		if err != nil {
			for _, open := range logs[:i] {
				open.Close()
			}
			return fmt.Errorf("server: wal shard %d: %w", i, err)
		}
		logs[i] = lg
	}
	d.logs = logs
	return nil
}

// Recover replays the WAL tail into the shard models and opens the logs
// for appending. It checkpoints only a fresh directory, or a tail that
// already reaches the checkpoint limit: a shorter tail stays listed in
// the manifest and counts toward the next checkpoint, and the next
// restart replays the same records to the same model. Idempotent once
// recovered.
func (e *engine[M]) Recover() error {
	d := e.dur
	if d == nil {
		return fmt.Errorf("server: durability not configured")
	}
	if !d.recovering.Load() {
		return nil
	}
	start := time.Now()
	if err := e.replay(); err != nil {
		return err
	}
	if err := e.openLogs(); err != nil {
		return err
	}
	d.recovering.Store(false)
	var err error
	if !d.hadState || d.sinceCut.Load() >= d.limit() {
		ckpt := time.Now()
		err = e.Checkpoint()
		d.took.checkpoint.Store(int64(time.Since(ckpt)))
	}
	d.took.recover.Store(d.took.decode.Load() + int64(time.Since(start)))
	return err
}

// replay applies the WAL tail, each shard's log on its own goroutine.
// A record's apply depends on nothing outside its shard's model (a
// clustering record carries its own timestamp and only raises the shared
// clock), so a shard's log order, which is its apply order, reproduces
// its exact insert sequence and, counting on from the manifest, its
// decay boundaries. Replay runs without descent mirrors (so no record
// or sweep pays a repair); a shard builds its mirror once its log runs
// dry. Errors are joined after every shard has returned.
func (e *engine[M]) replay() error {
	d := e.dur
	readers := make([]*wal.Reader, len(e.shards))
	defer func() {
		for _, r := range readers {
			if r != nil {
				d.dropped.Add(int64(r.Dropped()))
				r.Close()
			}
		}
	}()
	for i := range e.shards {
		r, err := wal.OpenReader(shardWALDir(d.opts.Dir, i), e.shardLogStart(i))
		if err != nil {
			return fmt.Errorf("server: wal shard %d: %w", i, err)
		}
		readers[i] = r
	}
	// one replays shard i's log; it alone touches readers[i].
	one := func(i int) (replayed, mirrored time.Duration, err error) {
		start, sh := time.Now(), e.shards[i]
		for {
			payload, err := readers[i].Next()
			if err == io.EOF {
				break
			}
			var apply func(*shard[M]) error
			if err == nil {
				_, apply, err = e.wl.record(payload)
				d.sinceCut.Add(wal.FrameBytes(len(payload)))
			}
			if err != nil {
				return 0, 0, fmt.Errorf("server: wal shard %d: %w", i, err)
			}
			sh.mu.Lock()
			err = e.countWrite(sh, apply(sh), false)
			sh.mu.Unlock()
			if err != nil {
				return 0, 0, fmt.Errorf("server: replay shard %d: %w", i, err)
			}
			d.replayed.Add(1)
		}
		built := time.Now()
		sh.mu.Lock()
		e.refreshShardSoA(sh)
		sh.mu.Unlock()
		return built.Sub(start), time.Since(built), nil
	}
	errs := make([]error, len(e.shards))
	took := make([][2]time.Duration, len(e.shards))
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			took[i][0], took[i][1], errs[i] = one(i)
		}(i)
	}
	wg.Wait()
	// The shard that took longest is the one the restart waited for: its
	// replay and mirror times are the ones that add up to wall time.
	var last [2]time.Duration
	for _, t := range took {
		if t[0]+t[1] > last[0]+last[1] {
			last = t
		}
	}
	d.took.replay.Store(int64(last[0]))
	d.took.mirror.Store(int64(last[1]))
	return errors.Join(errs...)
}

// Checkpoint writes a new snapshot generation and truncates the WAL
// behind it — the durable form of WriteSnapshot: under all shard locks,
// rotate every shard's log and encode the snapshot of that same cut into
// memory; then, with the locks released, sync the sealed segments, write
// the snapshot atomically, commit the new manifest and garbage-collect
// the old segments and snapshot. Crash-safe at every step — the manifest
// write is the commit point (see the ordering at the top of this file).
func (e *engine[M]) Checkpoint() error {
	_, _, _, err := e.checkpointSubscribe(nil)
	return err
}

// checkpointSubscribe is Checkpoint with an optional replication
// subscriber: when sub is non-nil it is attached to the hub inside the
// withAllRead cut — all shard locks held, so no append can land between
// the snapshot and the attachment — and the new snapshot is returned as
// an open *os.File along with the base LSN (the hub's shipped count at
// the cut). The open fd survives the snapshot's later garbage
// collection (unlink keeps the inode readable), so /replicate can
// stream it without racing the next checkpoint. With sub nil both
// returns are zero and no file is opened.
func (e *engine[M]) checkpointSubscribe(sub *replSub) (persist.Manifest, *os.File, uint64, error) {
	d := e.dur
	if d == nil {
		return persist.Manifest{}, nil, 0, fmt.Errorf("server: durability not configured")
	}
	if d.logs == nil {
		return persist.Manifest{}, nil, 0, errRecovering
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	gen := d.manifest.Generation + 1
	name := snapshotName(gen)
	starts, writes, cut, baseLSN, snap, err := e.cut(sub)
	fail := func(err error) (persist.Manifest, *os.File, uint64, error) {
		d.sinceCut.Add(cut)
		if sub != nil {
			d.hub.detach(sub)
		}
		return persist.Manifest{}, nil, 0, err
	}
	if err != nil {
		return fail(err)
	}
	for i, lg := range d.logs {
		if err := lg.Sync(); err != nil {
			return fail(fmt.Errorf("server: wal sync shard %d: %w", i, err))
		}
	}
	size := int64(snap.Len())
	if err := persist.WriteFileAtomic(filepath.Join(d.opts.Dir, name), func(w io.Writer) error {
		_, err := snap.WriteTo(w)
		return err
	}); err != nil {
		return fail(err)
	}
	prev := d.manifest
	m := persist.Manifest{Generation: gen, Epoch: d.epoch, Snapshot: name, Shards: len(d.logs), ShardStart: starts, ShardWrites: writes}
	if err := persist.SaveManifest(d.opts.Dir, m); err != nil {
		return fail(err)
	}
	d.manifest = m
	d.hadState = true
	d.snapBytes.Store(size)
	d.backoff.Store(0)
	d.checkpoints.Add(1)
	var f *os.File
	if sub != nil {
		if f, err = os.Open(filepath.Join(d.opts.Dir, name)); err != nil {
			d.hub.detach(sub)
			return persist.Manifest{}, nil, 0, fmt.Errorf("server: reopen snapshot: %w", err)
		}
	}
	// Everything below the new starts is folded into the snapshot;
	// removal is garbage collection, best-effort by design.
	for i, lg := range d.logs {
		lg.RemoveBefore(starts[i])
	}
	if prev.Snapshot != "" && prev.Snapshot != name {
		os.Remove(filepath.Join(d.opts.Dir, prev.Snapshot))
	}
	return m, f, baseLSN, nil
}

// cut is the part of a checkpoint that holds every shard lock: it
// rotates each log (the segments replay will start from), reads each
// shard's write count, takes the bytes logged since the last cut,
// attaches sub, and encodes the snapshot of the cut into memory. It
// runs no fsync and writes no file. The caller holds ckptMu.
func (e *engine[M]) cut(sub *replSub) (starts, writes []uint64, cut int64, baseLSN uint64, snap *bytes.Buffer, err error) {
	d := e.dur
	starts, writes = make([]uint64, len(d.logs)), make([]uint64, len(d.logs))
	snap = bytes.NewBuffer(make([]byte, 0, d.snapBytes.Load()))
	held := time.Now()
	err = e.withAllRead(func(models []M) error {
		for i, lg := range d.logs {
			seg, err := lg.Rotate()
			if err != nil {
				return fmt.Errorf("server: wal rotate shard %d: %w", i, err)
			}
			starts[i], writes[i] = seg, e.shards[i].writes
		}
		cut = d.sinceCut.Swap(0)
		if sub != nil {
			baseLSN = d.hub.attach(sub)
		}
		return e.wl.encode(snap, models)
	})
	if h := int64(time.Since(held)); h > d.lockHold.Load() {
		d.lockHold.Store(h)
	}
	return starts, writes, cut, baseLSN, snap, err
}

// Generation returns the current snapshot generation (0 before the
// first checkpoint, or when durability is off).
func (e *engine[M]) Generation() uint64 {
	if e.dur == nil {
		return 0
	}
	d := e.dur
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.manifest.Generation
}

// CloseDurability waits for a background checkpoint in flight and
// refuses new ones, then syncs and closes every shard's WAL and releases
// the directory lock. Inserts after it fail; call it after the final
// drain checkpoint.
func (e *engine[M]) CloseDurability() error {
	if e.dur == nil {
		return nil
	}
	d := e.dur
	d.bgMu.Lock()
	d.bgClosed = true
	d.bgMu.Unlock()
	d.bg.Wait()
	var first error
	for _, lg := range e.dur.logs {
		if err := lg.Close(); err != nil && first == nil {
			first = err
		}
	}
	if e.dur.lock != nil {
		if err := e.dur.lock.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// durStats folds the durability counters into a Stats summary.
func (e *engine[M]) durStats(st *Stats) {
	d := e.dur
	if d == nil {
		return
	}
	st.WALEnabled = true
	st.Recovering = d.recovering.Load()
	st.WALReplayed = d.replayed.Load()
	st.WALDroppedRecords = d.dropped.Load()
	ms := func(ns *atomic.Int64) float64 { return float64(ns.Load()) / 1e6 }
	st.RecoverMs, st.SnapshotDecodeMs = ms(&d.took.recover), ms(&d.took.decode)
	st.WALReplayMs, st.MirrorBuildMs, st.CheckpointMs = ms(&d.took.replay), ms(&d.took.mirror), ms(&d.took.checkpoint)
	st.Checkpoints, st.WALBytesSinceCheckpoint, st.CheckpointLockMs = d.checkpoints.Load(), d.sinceCut.Load(), ms(&d.lockHold)
	d.bgMu.Lock()
	if d.bgErr != nil {
		st.CheckpointError = d.bgErr.Error()
	}
	d.bgMu.Unlock()
	// d.logs is assigned once, before recovering flips false; reading it
	// only after observing !recovering rides that atomic's
	// happens-before edge, so /stats during background replay cannot
	// race the assignment.
	if !st.Recovering && d.logs != nil {
		for _, lg := range d.logs {
			ls := lg.Stats()
			st.WALAppends += ls.Appends
			st.WALSyncs += ls.Syncs
			st.WALBytes += ls.Bytes
		}
	}
	st.SnapshotGeneration = e.Generation()
}

// ---------------------------------------------------------------------
// record codec

// encodeRecord frames one logged write: the header words, then the
// point, all little-endian 64-bit. A classification record's header is
// the label; a clustering record's is the logical timestamp and the
// granted descent budget — the two inputs besides the point that make a
// ClusTree descent deterministic.
func encodeRecord(x []float64, head ...int64) []byte {
	b := make([]byte, 8*(len(head)+len(x)))
	for i, v := range head {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	for i, v := range x {
		binary.LittleEndian.PutUint64(b[8*(len(head)+i):], math.Float64bits(v))
	}
	return b
}

// decodeRecord is the inverse of encodeRecord for a record of nhead
// (at most two) header words and a dim-dimensional point.
func decodeRecord(p []byte, nhead, dim int) (head [2]int64, x []float64, err error) {
	if len(p) != 8*(nhead+dim) {
		return head, nil, fmt.Errorf("server: WAL record %d bytes, want %d", len(p), 8*(nhead+dim))
	}
	for i := 0; i < nhead; i++ {
		head[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	x = make([]float64, dim)
	for i := range x {
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*(nhead+i):]))
	}
	return head, x, nil
}

// ---------------------------------------------------------------------
// opening a durability directory

// OpenDurableServer opens (or creates) the durable classification state
// at dopts.Dir: when a manifest exists its snapshot generation is
// loaded and bootstrap is not called; otherwise bootstrap supplies the
// initial server (empty shards, a data set, or a legacy snapshot file).
// The returned server is recovering — /readyz answers 503 and writes
// are rejected — until Recover replays the WAL tail. The directory is
// locked (flock) for the life of the server, so a second process
// pointed at the same -wal-dir fails here instead of truncating live
// segments out from under the first.
func OpenDurableServer(dopts DurabilityOptions, cfg Config, bootstrap func() (*Server, error)) (*Server, error) {
	return openDurable(dopts, func(r io.Reader) (*Server, error) { return FromSnapshot(r, cfg) }, bootstrap)
}

// OpenDurableCluster is OpenDurableServer for the clustering workload.
func OpenDurableCluster(dopts DurabilityOptions, cfg Config, bootstrap func() (*ClusterServer, error)) (*ClusterServer, error) {
	return openDurable(dopts, func(r io.Reader) (*ClusterServer, error) { return ClusterFromSnapshot(r, cfg, ClusterOptions{}) }, bootstrap)
}

// openDurable is the open sequence both workloads share: lock + sweep
// the directory, load the manifest, decode its checkpoint snapshot (or
// bootstrap a fresh model), check the shard layout and arm the
// durability state. On error the directory lock is released.
func openDurable[S Served](dopts DurabilityOptions, decode func(io.Reader) (S, error), bootstrap func() (S, error)) (S, error) {
	var zero S
	do, err := openDurableDir(dopts)
	if err != nil {
		return zero, err
	}
	fail := func(err error) (S, error) {
		do.lock.Close()
		return zero, err
	}
	var s S
	if do.hadState && do.manifest.Snapshot != "" {
		f, err := os.Open(filepath.Join(dopts.Dir, do.manifest.Snapshot))
		if err != nil {
			return fail(fmt.Errorf("server: checkpoint snapshot: %w", err))
		}
		if info, err := f.Stat(); err == nil {
			do.snapBytes = info.Size()
		}
		start := time.Now()
		s, err = decode(f)
		do.decodeTook = time.Since(start)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("server: checkpoint snapshot %s: %w", do.manifest.Snapshot, err))
		}
	} else {
		if s, err = bootstrap(); err != nil {
			return fail(err)
		}
		if s == zero {
			return fail(fmt.Errorf("server: nil bootstrap server"))
		}
	}
	if do.hadState && do.manifest.Shards != s.NumShards() {
		return fail(fmt.Errorf("server: manifest has %d shards, model has %d", do.manifest.Shards, s.NumShards()))
	}
	s.attachDurability(dopts, do)
	return s, nil
}

// openDurableDir validates the options, creates and exclusively locks
// the root directory, sweeps stale temp files and loads the manifest.
func openDurableDir(dopts DurabilityOptions) (durOpen, error) {
	if dopts.Dir == "" {
		return durOpen{}, fmt.Errorf("server: durability dir required")
	}
	if err := os.MkdirAll(dopts.Dir, 0o755); err != nil {
		return durOpen{}, fmt.Errorf("server: %w", err)
	}
	lock, err := persist.LockDir(dopts.Dir)
	if err != nil {
		return durOpen{}, err
	}
	// Sweep temp files a crash mid-checkpoint stranded before staging
	// new ones through the same directory.
	if err := persist.RemoveStaleTemps(dopts.Dir); err != nil {
		lock.Close()
		return durOpen{}, err
	}
	m, had, err := persist.LoadManifest(dopts.Dir)
	if err != nil {
		lock.Close()
		return durOpen{}, err
	}
	fe, hadFenced, err := readFenced(dopts.Dir)
	if err != nil {
		lock.Close()
		return durOpen{}, err
	}
	return durOpen{manifest: m, hadState: had, lock: lock, fencedEpoch: fe, hadFenced: hadFenced}, nil
}
