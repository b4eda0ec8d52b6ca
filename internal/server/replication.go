package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bayestree/internal/persist"
	"bayestree/internal/replica"
)

// This file is the primary side of WAL-shipping replication plus the
// role/fencing state both sides share. The design rides the durability
// layer end to end:
//
//   - Shipping: every durable append publishes its (shard, payload) to
//     a hub under the owning shard's write lock, so per-shard shipping
//     order is exactly apply order and the hub's shipped counter is a
//     global LSN. A /replicate subscriber attaches inside a
//     checkpoint's withAllRead — all shard locks held, no append can
//     race — so the snapshot it streams and the LSN it attaches at are
//     the same consistent cut.
//   - Fencing: the manifest carries an epoch, bumped only by Promote.
//     A follower sends its epoch with every /replicate connect; a
//     primary probed with a newer epoch persists a FENCED marker and
//     refuses writes from then on — including across restarts — until
//     a manifest at or above the fencing epoch clears it.
//   - Roles: a follower serves reads but answers writes with a 307 to
//     its primary; Promote flips it to primary by bumping the epoch
//     and cutting a checkpoint under the new one.

// replSubBuffer is a subscriber's frame buffer. A subscriber that falls
// this far behind the append stream is dropped (its channel closed);
// the follower reconnects and re-bootstraps from a fresh checkpoint,
// which is strictly cheaper than stalling every insert on a slow link.
const replSubBuffer = 8192

// replHeartbeatEvery paces the heartbeat frames that carry the shipped
// LSN to idle followers — the staleness clock's tick.
const replHeartbeatEvery = 500 * time.Millisecond

// replFrame is one shipped WAL record.
type replFrame struct {
	shard   int
	payload []byte
}

// replSub is one /replicate subscriber: a buffered frame channel plus
// the dead flag set when the publisher overflows and closes it.
type replSub struct {
	ch   chan replFrame
	dead bool
}

// replHub fans durable appends out to /replicate subscribers and owns
// the shipped-LSN counter.
type replHub struct {
	mu      sync.Mutex
	shipped uint64
	subs    map[*replSub]struct{}
	// cuts counts subscribers dropped for overflowing their buffer —
	// with bufferDepths, the back-pressure surface /stats exposes.
	cuts int64
}

func newReplHub() *replHub { return &replHub{subs: make(map[*replSub]struct{})} }

// publish ships one appended record: bumps the LSN and offers the frame
// to every live subscriber without blocking — a full subscriber is
// declared dead and its channel closed, which ends its stream.
func (h *replHub) publish(shard int, payload []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.shipped++
	if len(h.subs) == 0 {
		return
	}
	f := replFrame{shard: shard, payload: payload}
	for sub := range h.subs {
		select {
		case sub.ch <- f:
		default:
			sub.dead = true
			close(sub.ch)
			delete(h.subs, sub)
			h.cuts++
		}
	}
}

// attach registers a subscriber and returns the shipped LSN at the
// instant of attachment. Called with all shard locks held (inside a
// checkpoint's consistent cut), so every record with LSN ≤ the returned
// base is in the snapshot and every later one will arrive on ch.
func (h *replHub) attach(sub *replSub) (base uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs[sub] = struct{}{}
	return h.shipped
}

// detach removes a subscriber; safe after an overflow already did.
func (h *replHub) detach(sub *replSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub]; ok && !sub.dead {
		delete(h.subs, sub)
	}
}

// shippedLSN returns the current shipped-record count.
func (h *replHub) shippedLSN() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.shipped
}

// followerCount reports the number of attached subscribers.
func (h *replHub) followerCount() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int64(len(h.subs))
}

// bufferDepths snapshots each attached subscriber's buffered frame
// count, sorted ascending (subscriber iteration order is random). A
// depth climbing toward replSubBuffer is a follower about to be cut.
func (h *replHub) bufferDepths() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.subs))
	for sub := range h.subs {
		out = append(out, len(sub.ch))
	}
	sort.Ints(out)
	return out
}

// overflowCuts reports the lifetime overflow-cut count.
func (h *replHub) overflowCuts() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cuts
}

// replState is the engine's replication role and staleness accounting.
type replState struct {
	// follower is set on a replica serving follower reads; primary
	// holds the primary's base URL for write redirects.
	follower atomic.Bool
	primary  atomic.Value // string
	// fenced is set on a primary that learned of a newer epoch; fencedBy
	// records that epoch.
	fenced   atomic.Bool
	fencedBy atomic.Uint64
	// applied is the follower's applied LSN: BaseLSN at bootstrap, +1
	// per replicated apply. lastCaughtUp is the unixnano instant the
	// follower last knew it matched the primary's shipped LSN — the
	// staleness clock's zero.
	applied      atomic.Uint64
	lastCaughtUp atomic.Int64
	// connected reports tail connectivity, and tailErr (a string) the
	// error that last dropped or refused the tail, "" while connected;
	// followers gauges attached /replicate subscribers on a primary.
	connected atomic.Bool
	tailErr   atomic.Value
}

// setTail records a tail transition Follower.Connected reports.
func (r *replState) setTail(err error) {
	r.connected.Store(err == nil)
	r.tailErr.Store(errText(err))
}

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// setFollower marks the engine as a follower of the primary at url.
func (r *replState) setFollower(url string) {
	r.primary.Store(url)
	r.follower.Store(true)
}

// role exposes the replication state to the Follower that drives it.
func (e *engine[M]) role() *replState { return &e.repl }

// followerRedirect returns the primary base URL writes should be
// redirected to, "" when not a follower.
func (e *engine[M]) followerRedirect() string {
	if !e.repl.follower.Load() {
		return ""
	}
	url, _ := e.repl.primary.Load().(string)
	return url
}

// replFenced reports whether this primary has fenced itself against a
// newer epoch.
func (e *engine[M]) replFenced() bool { return e.repl.fenced.Load() }

// fenceSelf persists the FENCED marker for epoch and flips the engine
// into the fenced state: every write from here on is refused loudly,
// including after a restart, until a manifest at or above epoch clears
// the marker.
func (e *engine[M]) fenceSelf(epoch uint64) {
	if e.dur != nil {
		// Best-effort persistence: even if the write fails the in-memory
		// fence holds for this process's lifetime.
		writeFenced(e.dur.opts.Dir, epoch)
	}
	e.repl.fencedBy.Store(epoch)
	e.repl.fenced.Store(true)
}

// setAppliedBase resets the follower's applied-LSN counter to the
// bootstrap checkpoint's base.
func (r *replState) setAppliedBase(lsn uint64) { r.applied.Store(lsn) }

// markCaughtUp records a primary heartbeat at shipped LSN lsn: if we
// have applied at least that much, we are provably current as of now.
func (r *replState) markCaughtUp(lsn uint64) {
	if r.applied.Load() >= lsn {
		r.markCaughtUpNow()
	}
}

// markCaughtUpNow unconditionally resets the staleness clock — used at
// bootstrap, when the follower state equals the shipped checkpoint by
// construction.
func (r *replState) markCaughtUpNow() { r.lastCaughtUp.Store(time.Now().UnixNano()) }

// writeAllowed gates every write path by recovery state and replication
// role: replay must have finished, followers point the client at the
// primary, a fenced primary refuses loudly.
func (e *engine[M]) writeAllowed() error {
	if e.Recovering() {
		return errRecovering
	}
	if url := e.followerRedirect(); url != "" {
		return fmt.Errorf("%w: writes go to the primary at %s", errFollower, url)
	}
	if e.replFenced() {
		return fmt.Errorf("%w: a newer primary (epoch %d) exists, refusing writes", errFenced, e.repl.fencedBy.Load())
	}
	return nil
}

// Epoch returns the replication fencing epoch (0 before any promote, or
// when durability is off).
func (e *engine[M]) Epoch() uint64 {
	if e.dur == nil {
		return 0
	}
	d := e.dur
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.epoch
}

// Promote turns this server into the primary of a new line of
// succession: bump the fencing epoch and cut a checkpoint under it (the
// manifest write is the durable commit of the new epoch), then drop any
// follower/fenced role state. Follower.Promote stops its tail first.
func (e *engine[M]) Promote() error {
	d := e.dur
	if d == nil {
		return fmt.Errorf("server: promote requires durability (-wal-dir)")
	}
	if d.recovering.Load() {
		return errRecovering
	}
	d.ckptMu.Lock()
	d.epoch++
	d.ckptMu.Unlock()
	if err := e.Checkpoint(); err != nil {
		d.ckptMu.Lock()
		d.epoch--
		d.ckptMu.Unlock()
		return fmt.Errorf("server: promote checkpoint: %w", err)
	}
	e.repl.follower.Store(false)
	e.repl.fenced.Store(false)
	clearFenced(d.opts.Dir)
	return nil
}

// ApplyReplicated applies one WAL record shipped from a primary to the
// given shard, through the follower's own log-before-apply path — the
// replica's on-disk state is itself durable and byte-identical to what
// the primary logged, and because a record carries every input that
// makes its apply deterministic, the model is digit-identical to the
// primary's at the same applied LSN. A record older than its shard's
// time is refused before it is logged, so every logged record applies.
// Used by a Follower's tail; not a client API.
func (e *engine[M]) ApplyReplicated(shard int, payload []byte) error {
	if e.Recovering() {
		return errRecovering
	}
	if shard < 0 || shard >= len(e.shards) {
		return fmt.Errorf("server: replicated record for shard %d of %d", shard, len(e.shards))
	}
	at, apply, err := e.wl.record(payload)
	if err != nil {
		return err
	}
	sh := e.shards[shard]
	sh.mu.Lock()
	if e.wl.stale != nil {
		err = e.wl.stale(sh.tree, at)
	}
	if err == nil && e.durableOn() {
		err = e.logAppend(shard, payload)
	}
	if err == nil {
		err = e.countWrite(sh, apply(sh), true)
	}
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	e.inserts.Add(1)
	e.repl.applied.Add(1)
	return nil
}

// replStats folds the replication fields into a Stats summary.
func (e *engine[M]) replStats(st *Stats) {
	if e.repl.follower.Load() {
		st.Role = "follower"
		st.AppliedLSN = e.repl.applied.Load()
		if at := e.repl.lastCaughtUp.Load(); at > 0 {
			st.StalenessMs = time.Since(time.Unix(0, at)).Milliseconds()
		} else {
			st.StalenessMs = -1
		}
		st.ReplConnected = e.repl.connected.Load()
		st.ReplTailError, _ = e.repl.tailErr.Load().(string)
	} else {
		st.Role = "primary"
	}
	st.Epoch = e.Epoch()
	st.Fenced = e.repl.fenced.Load()
	st.FencedBy = e.repl.fencedBy.Load()
	if e.dur != nil && e.dur.hub != nil {
		st.ReplFollowers = e.dur.hub.followerCount()
		st.ReplShippedLSN = e.dur.hub.shippedLSN()
		st.ReplSubBuffered = e.dur.hub.bufferDepths()
		st.ReplOverflowCuts = e.dur.hub.overflowCuts()
	}
}

// ---------------------------------------------------------------------
// FENCED marker

// fencedName is the persistent fencing marker's filename inside a
// durability directory: JSON {"epoch": N} meaning "a primary with epoch
// N exists; do not serve writes below it".
const fencedName = "FENCED"

// fencedMarker is the FENCED file's JSON shape.
type fencedMarker struct {
	Epoch uint64 `json:"epoch"`
}

// readFenced loads the FENCED marker, ok=false when none exists. A
// marker that exists but cannot be read, or whose epoch does not parse,
// is an error: taking it for absent would let a stale primary ack writes.
func readFenced(dir string) (epoch uint64, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, fencedName))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err == nil {
		epoch, err = decodeFenced(raw)
	}
	if err != nil {
		return 0, false, fmt.Errorf("server: %s marker: %w", fencedName, err)
	}
	return epoch, true, nil
}

// decodeFenced reads a FENCED marker's epoch, which writeFenced never
// writes as 0.
func decodeFenced(raw []byte) (uint64, error) {
	var m fencedMarker
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, err
	}
	if m.Epoch == 0 {
		return 0, errors.New("no epoch")
	}
	return m.Epoch, nil
}

// writeFenced persists the FENCED marker atomically, best-effort.
func writeFenced(dir string, epoch uint64) error {
	return persist.WriteFileAtomic(filepath.Join(dir, fencedName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(fencedMarker{Epoch: epoch})
	})
}

// clearFenced removes the FENCED marker, best-effort.
func clearFenced(dir string) { os.Remove(filepath.Join(dir, fencedName)) }

// ---------------------------------------------------------------------
// /replicate endpoint

// handleReplicate serves GET /replicate: it streams a checkpoint plus
// the live WAL tail to one follower — the JSON header line, the
// snapshot bytes, then record and heartbeat frames until the client
// goes away or falls too far behind.
func (e *engine[M]) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if e.dur == nil {
		WriteError(w, http.StatusServiceUnavailable, "replication requires durability (-wal-dir)")
		return
	}
	// A caller announcing a newer epoch is a promoted replica probing
	// its old primary: fence ourselves before answering.
	if raw := r.Header.Get(replica.EpochHeader); raw != "" {
		if callerEpoch, err := strconv.ParseUint(raw, 10, 64); err == nil && callerEpoch > e.Epoch() {
			e.fenceSelf(callerEpoch)
			WriteError(w, http.StatusConflict, "stale primary: fenced by epoch %d", callerEpoch)
			return
		}
	}
	if e.Recovering() {
		WriteUnavailable(w, "recovering")
		return
	}
	if e.replFenced() {
		WriteError(w, http.StatusServiceUnavailable, "fenced: a newer primary (epoch %d) exists", e.repl.fencedBy.Load())
		return
	}
	if e.Draining() {
		WriteUnavailable(w, "draining")
		return
	}

	sub := &replSub{ch: make(chan replFrame, replSubBuffer)}
	m, snap, baseLSN, err := e.checkpointSubscribe(sub)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	defer snap.Close()
	defer e.dur.hub.detach(sub)

	info, err := snap.Stat()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	h := replica.Header{
		Proto:         replica.Proto,
		Workload:      e.wl.name,
		Generation:    m.Generation,
		Epoch:         m.Epoch,
		Shards:        len(e.shards),
		SnapshotBytes: info.Size(),
		BaseLSN:       baseLSN,
		ShardWrites:   m.ShardWrites,
	}
	rc := http.NewResponseController(w)
	if err := replica.WriteHeader(w, h); err != nil {
		return
	}
	if _, err := io.Copy(w, snap); err != nil {
		return
	}
	// An immediate heartbeat lets the follower mark itself caught up the
	// instant the bootstrap lands instead of waiting a tick.
	if err := replica.WriteHeartbeat(w, baseLSN); err != nil {
		return
	}
	rc.Flush()

	tick := time.NewTicker(replHeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case f, ok := <-sub.ch:
			if !ok {
				// Overflowed: end the stream; the follower re-bootstraps.
				return
			}
			rc.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := replica.WriteRecord(w, f.shard, f.payload); err != nil {
				return
			}
			// Drain whatever else is queued before flushing once.
			for drained := false; !drained; {
				select {
				case f, ok := <-sub.ch:
					if !ok {
						return
					}
					if err := replica.WriteRecord(w, f.shard, f.payload); err != nil {
						return
					}
				default:
					drained = true
				}
			}
			rc.Flush()
		case <-tick.C:
			rc.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := replica.WriteHeartbeat(w, e.dur.hub.shippedLSN()); err != nil {
				return
			}
			rc.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// ReplicateHandler returns an http.Handler exposing only /replicate —
// for serving the replication stream on a separate listener
// (-replicate-addr) so follower traffic does not share the public port.
func (e *engine[M]) ReplicateHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/replicate", e.handleReplicate)
	return mux
}
