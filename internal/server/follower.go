package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bayestree/internal/persist"
	"bayestree/internal/replica"
	"bayestree/internal/wal"
)

// This file is the replica: a Follower wraps a durable workload server,
// tails its primary's /replicate stream, rebuilds the server from each
// checkpoint the primary ships, applies the live WAL tail through the
// server's own log-before-apply path, and serves follower reads the
// whole time. Because a bootstrap writes the shipped snapshot and a
// matching manifest into the follower's own durability directory and
// then reopens through the standard recovery path, a follower's
// on-disk state is the same shape as a primary's — which is exactly
// what makes Promote a local operation: bump the epoch, checkpoint,
// start taking writes.

// Tail timing: the reconnect backoff grows from tailBackoffMin to
// tailBackoffMax, and a connection that delivers no frame for
// silenceTimeout is dropped (heartbeats make silence abnormal). Tests
// lower them (export_test.go).
var (
	tailBackoffMin = 100 * time.Millisecond
	tailBackoffMax = 5 * time.Second
	silenceTimeout = 15 * time.Second
)

// errStalePrimary reports that the primary refused to serve the stream
// because the follower's epoch is newer than its own — the primary is a
// stale resurrection of a superseded line of succession.
var errStalePrimary = errors.New("replica: primary is stale (fenced by our newer epoch)")

// errNoLocalState is the sentinel a follower's bootstrap callback
// returns when the durability directory has no checkpoint yet: not an
// error, just "wait for the primary to ship one".
var errNoLocalState = errors.New("server: follower has no local state yet")

// Follower is a replica of a primary serving process: it tails the
// primary's stream into a durable workload server, serving follower
// reads (writes answer 307 to the primary) and staying byte-identical
// to the primary's logged state. S is *Server or *ClusterServer.
type Follower[S Served] struct {
	dopts      DurabilityOptions
	workload   string
	primaryURL string
	decode     func(io.Reader) (S, error)

	mu       sync.RWMutex
	cur      S // zero until the first bootstrap (or warm start) lands
	promoted atomic.Bool
	tailErr  atomic.Value // string: the error that last dropped the tail, "" if none

	tailMu   sync.Mutex
	tailStop func() // stops the running tail and waits for it; nil while none runs
}

// NewFollowerServer opens a classification follower over the durability
// directory at dopts.Dir, replicating from the primary at primaryURL.
// Existing local state (a previous bootstrap's checkpoint + WAL tail)
// is recovered and served immediately; otherwise reads answer 503 until
// the first bootstrap arrives. The follower tails the primary from the
// start; Promote and Persist stop the tail.
func NewFollowerServer(dopts DurabilityOptions, cfg Config, primaryURL string) (*Follower[*Server], error) {
	return newFollower(replica.WorkloadClassify, dopts, primaryURL, func(r io.Reader) (*Server, error) { return FromSnapshot(r, cfg) })
}

// NewFollowerCluster is NewFollowerServer for the clustering workload.
func NewFollowerCluster(dopts DurabilityOptions, cfg Config, primaryURL string) (*Follower[*ClusterServer], error) {
	return newFollower(replica.WorkloadCluster, dopts, primaryURL, func(r io.Reader) (*ClusterServer, error) { return ClusterFromSnapshot(r, cfg, ClusterOptions{}) })
}

// newFollower builds a follower of the named workload, whose snapshots
// decode decodes, warm-starts it and starts its tail.
func newFollower[S Served](workload string, dopts DurabilityOptions, primaryURL string, decode func(io.Reader) (S, error)) (*Follower[S], error) {
	f := &Follower[S]{dopts: dopts, workload: workload, primaryURL: primaryURL, decode: decode}
	if err := f.warmStart(); err != nil {
		return f, err
	}
	f.startTail()
	return f, nil
}

// open opens the follower's durable state through the standard path;
// a directory with no checkpoint yet yields errNoLocalState.
func (f *Follower[S]) open() (S, error) {
	return openDurable(f.dopts, f.decode, func() (S, error) {
		var zero S
		return zero, errNoLocalState
	})
}

// warmStart recovers existing local state so a restarted follower
// serves reads before its tail reconnects. No local state is fine —
// the first bootstrap supplies it.
func (f *Follower[S]) warmStart() error {
	s, err := f.open()
	if err != nil {
		if errors.Is(err, errNoLocalState) {
			return nil
		}
		return err
	}
	if err := s.Recover(); err != nil {
		s.CloseDurability()
		return err
	}
	s.role().setFollower(f.primaryURL)
	f.mu.Lock()
	f.cur = s
	f.mu.Unlock()
	return nil
}

// Current returns the follower's live workload server, or the zero
// value before the first bootstrap lands. Promotion does not change the
// returned server — after Promote it simply serves writes too.
func (f *Follower[S]) Current() S {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.cur
}

// ifLive runs fn on the live server; before the first bootstrap there
// is none and it does nothing.
func (f *Follower[S]) ifLive(fn func(S)) {
	var zero S
	if s := f.Current(); s != zero {
		fn(s)
	}
}

// bootstrap replaces the follower's state with the shipped checkpoint.
// The snapshot is written into the durability directory with a manifest
// whose ShardStart points at not-yet-existing WAL segments, then
// reopened through the standard recovery path — so the on-disk layout
// is indistinguishable from a primary that just checkpointed, and every
// record applied after it is logged before it lands.
func (f *Follower[S]) bootstrap(h replica.Header, snapshot io.Reader) error {
	var zero S
	f.mu.Lock()
	defer f.mu.Unlock()
	if h.Workload != f.workload {
		return fmt.Errorf("server: primary ships workload %q, this follower serves %q", h.Workload, f.workload)
	}
	if h.Generation == 0 {
		return fmt.Errorf("server: primary shipped generation 0")
	}
	// Retire the old incarnation first: its WAL and flock must be
	// released before the reopen below can take them. Reads hitting the
	// old handler mid-swap still answer from its in-memory trees.
	if f.cur != zero {
		if err := f.cur.CloseDurability(); err != nil {
			return fmt.Errorf("server: retire previous state: %w", err)
		}
		f.cur = zero
	}
	name := snapshotName(h.Generation)
	var copied int64
	if err := persist.WriteFileAtomic(filepath.Join(f.dopts.Dir, name), func(w io.Writer) error {
		n, err := io.Copy(w, snapshot)
		copied = n
		return err
	}); err != nil {
		return fmt.Errorf("server: bootstrap snapshot: %w", err)
	}
	if copied != h.SnapshotBytes {
		os.Remove(filepath.Join(f.dopts.Dir, name))
		return fmt.Errorf("server: bootstrap snapshot: %d bytes, header promised %d", copied, h.SnapshotBytes)
	}
	starts := make([]uint64, h.Shards)
	for i := range starts {
		seg, err := wal.NextSegment(shardWALDir(f.dopts.Dir, i))
		if err != nil {
			return err
		}
		starts[i] = seg
	}
	m := persist.Manifest{
		Generation:  h.Generation,
		Epoch:       h.Epoch,
		Snapshot:    name,
		Shards:      h.Shards,
		ShardStart:  starts,
		ShardWrites: h.ShardWrites,
	}
	if err := persist.SaveManifest(f.dopts.Dir, m); err != nil {
		return err
	}
	// Following the shipped epoch supersedes any fencing this directory
	// carried from an older line of succession.
	clearFenced(f.dopts.Dir)
	// Other snapshot generations are now garbage, best-effort removal.
	if others, err := filepath.Glob(filepath.Join(f.dopts.Dir, "snapshot-*.btsn")); err == nil {
		for _, p := range others {
			if filepath.Base(p) != name {
				os.Remove(p)
			}
		}
	}
	s, err := f.open()
	if err != nil {
		return err
	}
	// The manifest's ShardStart names fresh segments, so this replays
	// nothing; it opens the logs and flips the server into serving mode.
	if err := s.Recover(); err != nil {
		s.CloseDurability()
		return err
	}
	if s.NumShards() != h.Shards {
		s.CloseDurability()
		return fmt.Errorf("server: bootstrapped model has %d shards, header promised %d", s.NumShards(), h.Shards)
	}
	s.role().setFollower(f.primaryURL)
	s.role().setAppliedBase(h.BaseLSN)
	s.role().markCaughtUpNow()
	f.cur = s
	return nil
}

// connected records tail connectivity: nil after a bootstrap, else the
// error that dropped or refused the tail, for /stats — and, before the
// first bootstrap, for the 503 reads answer.
func (f *Follower[S]) connected(err error) {
	f.tailErr.Store(errText(err))
	f.ifLive(func(s S) { s.role().setTail(err) })
}

// startTail starts the tail loop unless one runs.
func (f *Follower[S]) startTail() {
	f.tailMu.Lock()
	defer f.tailMu.Unlock()
	if f.tailStop != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.tail(ctx)
	}()
	f.tailStop = func() {
		cancel()
		<-done
	}
}

// stopTail cancels the tail loop and waits for it to exit; with no tail
// running it does nothing.
func (f *Follower[S]) stopTail() {
	f.tailMu.Lock()
	stop := f.tailStop
	f.tailStop = nil
	f.tailMu.Unlock()
	if stop != nil {
		stop()
	}
}

// tail drives the connect/bootstrap/apply loop until ctx is cancelled,
// recording every connection failure and retrying it after a jittered
// exponential backoff.
func (f *Follower[S]) tail(ctx context.Context) {
	backoff := tailBackoffMin
	for {
		streamed, err := f.tailOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		f.connected(err)
		if streamed {
			// A connection that got as far as a bootstrap earns a fresh
			// backoff; only repeated connect failures escalate.
			backoff = tailBackoffMin
		}
		// Full jitter on the current backoff step keeps a fleet of
		// reconnecting replicas from stampeding a recovering primary.
		delay := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
		backoff = min(2*backoff, tailBackoffMax)
	}
}

// tailOnce runs one connection to completion: bootstrap from the
// shipped checkpoint, then apply frames until the stream breaks, which
// err says why. streamed reports whether the bootstrap succeeded.
func (f *Follower[S]) tailOnce(ctx context.Context) (streamed bool, err error) {
	// The watchdog cancels the request — aborting any blocked body
	// read — once no frame has arrived for silenceTimeout.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	silent := fmt.Errorf("replica: no frame from the primary for %v", silenceTimeout)
	watchdog := time.AfterFunc(silenceTimeout, func() { cancel(silent) })
	defer watchdog.Stop()
	defer func() {
		if context.Cause(ctx) == silent {
			err = silent
		}
	}()

	epoch := f.Epoch()
	req, err := replica.NewRequest(ctx, f.primaryURL, epoch)
	if err != nil {
		return false, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false, errStalePrimary
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("replica: /replicate: %s: %s", resp.Status, string(body))
	}

	br := bufio.NewReaderSize(resp.Body, 64*1024)
	h, err := replica.ReadHeader(br)
	if err != nil {
		return false, err
	}
	watchdog.Reset(silenceTimeout)
	if h.Epoch < epoch {
		// The primary should have fenced itself on our header; refuse
		// its stream regardless.
		return false, errStalePrimary
	}
	// bootstrap reads exactly h.SnapshotBytes or fails, so the frames
	// start where it stops.
	if err := f.bootstrap(h, io.LimitReader(br, h.SnapshotBytes)); err != nil {
		return false, fmt.Errorf("replica: bootstrap: %w", err)
	}
	f.connected(nil)
	s := f.Current()
	for {
		watchdog.Reset(silenceTimeout)
		fr, err := replica.ReadFrame(br)
		if err != nil {
			return true, err
		}
		if fr.Kind == replica.FrameHeartbeat {
			// The primary had shipped fr.LSN records as of now: a
			// follower that applied that many is current.
			s.role().markCaughtUp(fr.LSN)
		} else if err := s.ApplyReplicated(fr.Shard, fr.Payload); err != nil {
			return true, fmt.Errorf("replica: apply: %w", err)
		}
	}
}

// Epoch returns the follower's current fencing epoch — what its tail
// announces on every connect. Before the first bootstrap it falls back
// to the on-disk manifest (0 when none).
func (f *Follower[S]) Epoch() uint64 {
	var zero S
	if s := f.Current(); s != zero {
		return s.Epoch()
	}
	if m, ok, err := persist.LoadManifest(f.dopts.Dir); err == nil && ok {
		return m.Epoch
	}
	return 0
}

// Handler serves the follower's read surface: the wrapped server's full
// handler once state exists (its write endpoints answer 307 to the
// primary), and 503 + Retry-After (with a live /healthz) before the
// first bootstrap.
func (f *Follower[S]) Handler() http.Handler {
	waiting := http.NewServeMux()
	HandleHealth(waiting, func() string { return "bootstrapping" })
	waiting.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if msg, _ := f.tailErr.Load().(string); msg != "" {
			WriteUnavailable(w, "replica: awaiting first bootstrap from primary %s (last tail error: %s)", f.primaryURL, msg)
			return
		}
		WriteUnavailable(w, "replica: awaiting first bootstrap from primary %s", f.primaryURL)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var zero S
		if s := f.Current(); s != zero {
			s.Handler().ServeHTTP(w, r)
			return
		}
		waiting.ServeHTTP(w, r)
	})
}

// Promote turns this follower into the primary of a new line of
// succession: it stops the tail, and the wrapped server bumps its
// fencing epoch, durably commits it with a checkpoint and starts
// accepting writes. A failed promote resumes the tail. A best-effort
// probe tells the old primary about the new epoch so it fences itself
// immediately if it is still (or again) alive; a dead primary learns the
// same the moment anything probes it with the new epoch.
func (f *Follower[S]) Promote() error {
	f.stopTail()
	if err := f.promote(); err != nil {
		f.startTail()
		return err
	}
	return nil
}

// promote is Promote with the tail stopped.
func (f *Follower[S]) promote() error {
	var zero S
	s := f.Current()
	if s == zero {
		return fmt.Errorf("server: nothing to promote: no bootstrap received yet")
	}
	if !f.promoted.CompareAndSwap(false, true) {
		return nil
	}
	if err := s.Promote(); err != nil {
		f.promoted.Store(false)
		return err
	}
	// Best effort, and usually met with silence: the primary is dead —
	// that is why we promoted.
	go func(epoch uint64) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		replica.FenceProbe(ctx, http.DefaultClient, f.primaryURL, epoch)
	}(s.Epoch())
	return nil
}

// SetDraining forwards draining state to the wrapped server (no-op
// before the first bootstrap).
func (f *Follower[S]) SetDraining(v bool) {
	f.ifLive(func(s S) { s.SetDraining(v) })
}

// Persist cuts a final checkpoint and closes the durability layer — the
// follower's shutdown path. It stops the tail first.
func (f *Follower[S]) Persist() error {
	var zero S
	f.stopTail()
	s := f.Current()
	if s == zero {
		return nil
	}
	if err := s.Checkpoint(); err != nil {
		s.CloseDurability()
		return err
	}
	return s.CloseDurability()
}
