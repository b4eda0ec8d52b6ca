// Package replica implements the follower side of WAL-shipping
// replication and the wire protocol both sides share.
//
// A primary serving process exposes GET /replicate: the response is one
// JSON header line describing the checkpoint being shipped (snapshot
// generation, fencing epoch, shard count, snapshot byte length, and the
// base LSN — the number of records the primary had shipped when the
// checkpoint's consistent cut was taken), followed by the raw snapshot
// bytes, followed by an unbounded sequence of binary frames: one record
// frame per WAL append (the exact payload the primary logged, tagged
// with its shard) interleaved with heartbeat frames carrying the
// primary's current shipped LSN.
//
// The Tailer here is the replica's pump: it connects, hands the header
// and snapshot to its Sink (which rebuilds the local model from the
// checkpoint), then applies record frames one at a time — through the
// replica's own log-before-apply path, so replica state is itself
// durable — and reconnects with jittered exponential backoff whenever
// the stream breaks. Reconnects always re-bootstrap from a fresh
// checkpoint: the stream has no resume cursor, which trades transfer
// volume for never having to reason about a half-applied tail.
//
// Fencing rides the same connection: the follower sends its own epoch
// in the X-Bayestree-Epoch request header. A primary that sees a caller
// with a NEWER epoch knows it has been superseded — it fences itself
// (persistently) and answers 409, and the Tailer reports the condition
// instead of applying frames from a stale line of succession.
package replica

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Proto is the replication wire-protocol version. A follower refuses a
// header with any other value rather than misparsing the stream.
const Proto = 1

// EpochHeader is the HTTP request header a follower sends with its
// current fencing epoch; a primary that sees a newer epoch than its own
// fences itself.
const EpochHeader = "X-Bayestree-Epoch"

// Workload names for Header.Workload, so a classification follower
// cannot silently apply a clustering primary's records (the record
// codecs differ).
const (
	// WorkloadClassify labels the classification serving workload.
	WorkloadClassify = "classify"
	// WorkloadCluster labels the clustering serving workload.
	WorkloadCluster = "cluster"
)

// Header is the JSON line that opens a /replicate response: everything
// the follower needs to rebuild from the checkpoint that follows and to
// account for the live tail after it.
type Header struct {
	// Proto is the wire-protocol version (must equal Proto).
	Proto int `json:"proto"`
	// Workload identifies the record codec: WorkloadClassify or
	// WorkloadCluster.
	Workload string `json:"workload"`
	// Generation is the manifest generation of the shipped checkpoint.
	Generation uint64 `json:"generation"`
	// Epoch is the primary's fencing epoch; the follower adopts it.
	Epoch uint64 `json:"epoch"`
	// Shards is the primary's shard count; replicated records are
	// tagged with shard indices below it.
	Shards int `json:"shards"`
	// SnapshotBytes is the exact length of the snapshot that follows
	// the header line.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// BaseLSN is the primary's shipped-record count at the checkpoint's
	// consistent cut: the snapshot contains exactly the records with
	// LSN ≤ BaseLSN, and the first record frame after it is BaseLSN+1.
	BaseLSN uint64 `json:"base_lsn"`
	// ShardWrites is, per shard, the lifetime write count at the cut,
	// which the follower's decay boundaries continue; absent (or empty),
	// 0 each.
	ShardWrites []uint64 `json:"shard_writes,omitempty"`
}

// frame kind bytes on the wire.
const (
	frameRecord    byte = 'r'
	frameHeartbeat byte = 'h'
)

// maxFramePayload bounds a declared record length before allocation,
// mirroring the WAL's own record cap.
const maxFramePayload = 16 << 20

// WriteHeader writes the opening JSON header line.
func WriteHeader(w io.Writer, h Header) error {
	raw, err := json.Marshal(h)
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

// maxHeaderLine caps the header line a follower reads, far above a real
// one (about 200 bytes plus ten or so per shard), so a peer that never
// sends '\n' cannot grow the follower's memory without limit.
const maxHeaderLine = 64 << 10

// ReadHeader reads and validates the opening JSON header line.
func ReadHeader(r *bufio.Reader) (Header, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		if len(line)+len(chunk) > maxHeaderLine {
			return Header{}, fmt.Errorf("replica: header line over %d bytes", maxHeaderLine)
		}
		line = append(line, chunk...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return Header{}, fmt.Errorf("replica: header: %w", err)
		}
	}
	// Presized from the line's length, the write counts decode without
	// the several-fold growth of a slice appended to element by element.
	h := Header{ShardWrites: make([]uint64, 0, len(line)/2)}
	if err := json.Unmarshal(line, &h); err != nil {
		return Header{}, fmt.Errorf("replica: header: %w", err)
	}
	if len(h.ShardWrites) == 0 {
		h.ShardWrites = nil
	}
	if h.Proto != Proto {
		return Header{}, fmt.Errorf("replica: protocol version %d, want %d", h.Proto, Proto)
	}
	if h.Shards <= 0 || h.SnapshotBytes < 0 {
		return Header{}, fmt.Errorf("replica: malformed header: %d shards, %d snapshot bytes", h.Shards, h.SnapshotBytes)
	}
	if h.ShardWrites != nil && len(h.ShardWrites) != h.Shards {
		return Header{}, fmt.Errorf("replica: header has %d shard write counts for %d shards", len(h.ShardWrites), h.Shards)
	}
	return h, nil
}

// WriteRecord writes one record frame: the kind byte, the shard index
// and payload length (both little-endian uint32), then the payload —
// the exact bytes the primary appended to that shard's WAL.
func WriteRecord(w io.Writer, shard int, payload []byte) error {
	var hdr [9]byte
	hdr[0] = frameRecord
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(shard))
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteHeartbeat writes one heartbeat frame carrying the primary's
// current shipped LSN.
func WriteHeartbeat(w io.Writer, lsn uint64) error {
	var buf [9]byte
	buf[0] = frameHeartbeat
	binary.LittleEndian.PutUint64(buf[1:9], lsn)
	_, err := w.Write(buf[:])
	return err
}

// Frame is one parsed wire frame: a record (Shard, Payload) or a
// heartbeat (LSN).
type Frame struct {
	// Kind is 'r' for a record frame, 'h' for a heartbeat.
	Kind byte
	// Shard is the record's shard index (record frames only).
	Shard int
	// LSN is the primary's shipped LSN (heartbeat frames only).
	LSN uint64
	// Payload is the WAL record bytes (record frames only).
	Payload []byte
}

// ReadFrame reads the next frame from the stream.
func ReadFrame(r io.Reader) (Frame, error) {
	var kind [1]byte
	if _, err := io.ReadFull(r, kind[:]); err != nil {
		return Frame{}, err
	}
	switch kind[0] {
	case frameRecord:
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return Frame{}, fmt.Errorf("replica: record frame: %w", err)
		}
		shard := binary.LittleEndian.Uint32(hdr[0:4])
		n := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxFramePayload {
			return Frame{}, fmt.Errorf("replica: record frame declares %d bytes", n)
		}
		// Read into a buffer that grows with the bytes delivered, so a
		// forged length costs no more than what follows it.
		payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
		if err == nil && len(payload) < int(n) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return Frame{}, fmt.Errorf("replica: record frame: %w", err)
		}
		return Frame{Kind: frameRecord, Shard: int(shard), Payload: payload}, nil
	case frameHeartbeat:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return Frame{}, fmt.Errorf("replica: heartbeat frame: %w", err)
		}
		return Frame{Kind: frameHeartbeat, LSN: binary.LittleEndian.Uint64(buf[:])}, nil
	default:
		return Frame{}, fmt.Errorf("replica: unknown frame kind 0x%02x", kind[0])
	}
}

// FormatEpoch renders an epoch for the EpochHeader request header.
func FormatEpoch(epoch uint64) string { return strconv.FormatUint(epoch, 10) }

// replicateRequest builds the GET /replicate request to the server at
// base that announces epoch in EpochHeader — what a tailing follower
// connects with and what a fence probe sends.
func replicateRequest(ctx context.Context, base string, epoch uint64) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/replicate", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(EpochHeader, FormatEpoch(epoch))
	return req, nil
}

// FenceProbe tells the server at base that a primary at epoch exists,
// with the request a reconnecting follower of that epoch would send: a
// still-running primary of an older epoch fences itself on it and
// answers 409. It is best effort — the target is usually dead, which is
// why something was promoted — so failures are ignored; ctx bounds the
// exchange, and the start of the answer is drained so a pooled client
// can reuse the connection.
func FenceProbe(ctx context.Context, client *http.Client, base string, epoch uint64) {
	req, err := replicateRequest(ctx, base, epoch)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// ErrStalePrimary reports that the primary refused to serve the stream
// because the follower's epoch is newer than its own — the primary is a
// stale resurrection of a superseded line of succession (it fenced
// itself on our probe). Test with errors.Is.
var ErrStalePrimary = errors.New("replica: primary is stale (fenced by our newer epoch)")

// Sink is what the Tailer pumps into — the replica's model layer.
// Calls are sequential: one Bootstrap per (re)connect, then Apply and
// CaughtUp in stream order until the connection breaks.
type Sink interface {
	// Bootstrap rebuilds the replica from a full checkpoint: snapshot
	// delivers exactly Header.SnapshotBytes bytes. On error the Tailer
	// drops the connection and retries with a fresh checkpoint.
	Bootstrap(h Header, snapshot io.Reader) error
	// Apply applies one shipped WAL record to the given shard, through
	// the replica's own log-before-apply path. An error drops the
	// connection (and the next bootstrap re-converges).
	Apply(shard int, payload []byte) error
	// CaughtUp reports a heartbeat: the primary had shipped lsn records
	// as of now, so a replica that has applied that many knows it is
	// current and can reset its staleness clock.
	CaughtUp(lsn uint64)
	// Connected reports tail connectivity transitions: nil after a
	// successful bootstrap, and the error that dropped the stream or
	// refused the connection otherwise. A Tailer being stopped reports
	// nothing.
	Connected(err error)
}

// Options parameterise a Tailer.
type Options struct {
	// PrimaryURL is the primary's base URL (e.g. http://host:8080); the
	// Tailer appends /replicate.
	PrimaryURL string
	// Workload is the expected Header.Workload; a mismatch is refused.
	Workload string
	// Epoch returns the follower's current fencing epoch, sent with
	// every connect so a stale primary fences itself. Nil means epoch 0.
	Epoch func() uint64
	// BackoffMin and BackoffMax bound the jittered exponential
	// reconnect backoff (0 means 100ms and 5s).
	BackoffMin time.Duration
	BackoffMax time.Duration
}

// silenceTimeout drops a connection that has delivered no frame for
// this long: heartbeats make silence abnormal.
const silenceTimeout = 15 * time.Second

// errSilent is the error a connection dropped for silence reports.
var errSilent = fmt.Errorf("replica: no frame from the primary for %v", silenceTimeout)

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.BackoffMin <= 0 {
		o.BackoffMin = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	return o
}

// Tailer pumps a primary's replication stream into a Sink, reconnecting
// with jittered exponential backoff until stopped.
type Tailer struct {
	sink Sink
	opts Options

	mu     sync.Mutex
	cancel context.CancelFunc
	done   chan struct{}
}

// New builds a Tailer over a sink. Start it with Start (or drive it
// directly with Run) and stop it with Stop.
func New(sink Sink, opts Options) *Tailer {
	return &Tailer{sink: sink, opts: opts.withDefaults()}
}

// Start launches Run in a background goroutine with an internal
// context. Stop cancels it and waits.
func (t *Tailer) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	t.done = make(chan struct{})
	go func(done chan struct{}) {
		defer close(done)
		t.Run(ctx)
	}(t.done)
}

// Stop cancels a Start-ed tailer and waits for its loop to exit. Safe
// to call multiple times, and a no-op for a tailer that never started.
func (t *Tailer) Stop() {
	t.mu.Lock()
	cancel, done := t.cancel, t.done
	t.cancel, t.done = nil, nil
	t.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// Run drives the connect/bootstrap/apply loop until ctx is cancelled.
// Every connection failure is reported to the sink (Connected(err)) and
// retried after a jittered exponential backoff.
func (t *Tailer) Run(ctx context.Context) {
	backoff := t.opts.BackoffMin
	for ctx.Err() == nil {
		streamed, err := t.tailOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		t.sink.Connected(err)
		if streamed {
			// A connection that got as far as applying frames earns a
			// fresh backoff; only repeated connect failures escalate.
			backoff = t.opts.BackoffMin
		}
		// Full jitter on the current backoff step keeps a fleet of
		// reconnecting replicas from stampeding a recovering primary.
		delay := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
		if backoff *= 2; backoff > t.opts.BackoffMax {
			backoff = t.opts.BackoffMax
		}
	}
}

// tailOnce runs one connection to completion: bootstrap from the
// shipped checkpoint, then apply frames until the stream breaks, which
// err says why. streamed reports whether the bootstrap succeeded (for
// backoff reset).
func (t *Tailer) tailOnce(ctx context.Context) (streamed bool, err error) {
	// The watchdog cancels the request context — aborting any blocked
	// body read — when no frame has arrived for silenceTimeout.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	defer func() {
		if context.Cause(ctx) == errSilent {
			err = errSilent
		}
	}()
	activity := make(chan struct{}, 1)
	poke := func() {
		select {
		case activity <- struct{}{}:
		default:
		}
	}
	go func() {
		timer := time.NewTimer(silenceTimeout)
		defer timer.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-activity:
				if !timer.Stop() {
					<-timer.C
				}
				timer.Reset(silenceTimeout)
			case <-timer.C:
				cancel(errSilent)
				return
			}
		}
	}()

	var epoch uint64
	if t.opts.Epoch != nil {
		epoch = t.opts.Epoch()
	}
	req, err := replicateRequest(ctx, t.opts.PrimaryURL, epoch)
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
		return false, ErrStalePrimary
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("replica: /replicate: %s: %s", resp.Status, string(body))
	}

	br := bufio.NewReaderSize(resp.Body, 64*1024)
	h, err := ReadHeader(br)
	if err != nil {
		return false, err
	}
	poke()
	if t.opts.Workload != "" && h.Workload != t.opts.Workload {
		return false, fmt.Errorf("replica: primary serves workload %q, want %q", h.Workload, t.opts.Workload)
	}
	if h.Epoch < epoch {
		// The primary should have fenced itself on our header; refuse
		// its stream regardless.
		return false, ErrStalePrimary
	}

	snap := io.LimitReader(br, h.SnapshotBytes)
	if err := t.sink.Bootstrap(h, snap); err != nil {
		return false, fmt.Errorf("replica: bootstrap: %w", err)
	}
	// Stay frame-aligned even if the sink under-read the snapshot.
	if _, err := io.Copy(io.Discard, snap); err != nil {
		return true, err
	}
	t.sink.Connected(nil)
	poke()

	for {
		f, err := ReadFrame(br)
		if err != nil {
			return true, err
		}
		poke()
		switch f.Kind {
		case frameRecord:
			if f.Shard < 0 || f.Shard >= h.Shards {
				return true, fmt.Errorf("replica: record for shard %d of %d", f.Shard, h.Shards)
			}
			if err := t.sink.Apply(f.Shard, f.Payload); err != nil {
				return true, fmt.Errorf("replica: apply: %w", err)
			}
		case frameHeartbeat:
			t.sink.CaughtUp(f.LSN)
		}
	}
}
