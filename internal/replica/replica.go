// Package replica is the wire protocol of WAL-shipping replication,
// shared by a primary's /replicate handler and a follower's tail (both
// in internal/server).
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
// The stream has no resume cursor: a follower that reconnects
// re-bootstraps from a fresh checkpoint, which trades transfer volume
// for never having to reason about a half-applied tail.
//
// Fencing rides the same request: the follower sends its own epoch in
// the X-Bayestree-Epoch header (EpochHeader). A primary that sees a
// caller with a NEWER epoch knows it has been superseded — it fences
// itself (persistently) and answers 409, and the follower reports the
// condition instead of applying frames from a stale line of succession.
package replica

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
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

// Frame kind bytes on the wire.
const (
	// FrameRecord opens a record frame.
	FrameRecord byte = 'r'
	// FrameHeartbeat opens a heartbeat frame.
	FrameHeartbeat byte = 'h'
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
	hdr[0] = FrameRecord
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
	buf[0] = FrameHeartbeat
	binary.LittleEndian.PutUint64(buf[1:9], lsn)
	_, err := w.Write(buf[:])
	return err
}

// Frame is one parsed wire frame: a record (Shard, Payload) or a
// heartbeat (LSN).
type Frame struct {
	// Kind is FrameRecord or FrameHeartbeat.
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
	case FrameRecord:
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
		return Frame{Kind: FrameRecord, Shard: int(shard), Payload: payload}, nil
	case FrameHeartbeat:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return Frame{}, fmt.Errorf("replica: heartbeat frame: %w", err)
		}
		return Frame{Kind: FrameHeartbeat, LSN: binary.LittleEndian.Uint64(buf[:])}, nil
	default:
		return Frame{}, fmt.Errorf("replica: unknown frame kind 0x%02x", kind[0])
	}
}

// FormatEpoch renders an epoch for the EpochHeader request header.
func FormatEpoch(epoch uint64) string { return strconv.FormatUint(epoch, 10) }

// NewRequest builds the GET /replicate request to the server at base
// that announces epoch in EpochHeader — what a tailing follower
// connects with and what a fence probe sends.
func NewRequest(ctx context.Context, base string, epoch uint64) (*http.Request, error) {
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
	req, err := NewRequest(ctx, base, epoch)
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
