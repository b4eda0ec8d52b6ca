package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestWireRoundTrip: header, snapshot bytes, record frames, and
// heartbeats survive an encode/decode cycle byte-for-byte.
func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := Header{
		Proto:         Proto,
		Workload:      WorkloadClassify,
		Generation:    3,
		Epoch:         2,
		Shards:        4,
		SnapshotBytes: 5,
		BaseLSN:       9,
		ShardWrites:   []uint64{64, 0, 7, 1 << 40},
	}
	if err := WriteHeader(&buf, h); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("snap!")
	if err := WriteRecord(&buf, 2, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := WriteHeartbeat(&buf, 42); err != nil {
		t.Fatal(err)
	}

	r := bufio.NewReader(&buf)
	got, err := ReadHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("header = %+v, want %+v", got, h)
	}
	snap := make([]byte, got.SnapshotBytes)
	if _, err := io.ReadFull(r, snap); err != nil {
		t.Fatal(err)
	}
	if string(snap) != "snap!" {
		t.Fatalf("snapshot = %q", snap)
	}
	f, err := ReadFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameRecord || f.Shard != 2 || string(f.Payload) != "payload" {
		t.Fatalf("record frame = %+v", f)
	}
	f, err = ReadFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameHeartbeat || f.LSN != 42 {
		t.Fatalf("heartbeat frame = %+v", f)
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("trailing read err = %v, want EOF", err)
	}
}

// TestReadHeaderRejects: protocol mismatches and malformed headers are
// errors, not silent misinterpretation of the byte stream that follows.
func TestReadHeaderRejects(t *testing.T) {
	cases := []string{
		`{"proto":99,"workload":"classify","generation":1,"shards":1,"snapshot_bytes":0,"base_lsn":0}` + "\n",
		`{"proto":1,"workload":"classify","generation":1,"shards":0,"snapshot_bytes":0,"base_lsn":0}` + "\n",
		`{"proto":1,"workload":"classify","generation":1,"shards":1,"snapshot_bytes":-4,"base_lsn":0}` + "\n",
		`{"proto":1,"workload":"classify","generation":1,"shards":2,"snapshot_bytes":0,"base_lsn":0,"shard_writes":[5]}` + "\n",
		`{"proto":1,"workload":"classify","generation":1,"shards":1,"snapshot_bytes":0,"base_lsn":0,"shard_writes":[-5]}` + "\n",
		"not json\n",
	}
	for i, raw := range cases {
		if _, err := ReadHeader(bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Fatalf("case %d: bad header accepted", i)
		}
	}
}

// TestReadFrameRejectsOversize: a frame claiming more than the payload
// cap is refused before any allocation of that size.
func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteByte(FrameRecord)
	buf.Write([]byte{0, 0, 0, 0})             // shard 0
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// FuzzReadHeader: whatever the bytes, ReadHeader never panics, reads at
// most maxHeaderLine bytes, and allocates no more than 8 × the part of
// the input it may read (+ frameSlack): a peer that never sends '\n'
// costs the follower a bounded line, not the stream. What it accepts,
// WriteHeader writes back as a line that reads as the same header.
//
// The seeds are a real header cut at every byte, the checks' failures,
// and lines padded past the cap with and without their '\n', so that
// `go test` alone catches a reader with no cap.
func FuzzReadHeader(f *testing.F) {
	var real bytes.Buffer
	h := Header{Proto: Proto, Workload: WorkloadClassify, Generation: 7, Epoch: 3, Shards: 4, SnapshotBytes: 4096, BaseLSN: 12}
	if err := WriteHeader(&real, h); err != nil {
		f.Fatal(err)
	}
	whole := real.Bytes()
	for n := 0; n <= len(whole); n++ {
		f.Add(whole[:n])
	}
	f.Add(append(append([]byte(nil), whole...), "snapshot bytes"...))
	f.Add([]byte(`{"proto":2,"shards":1}` + "\n"))
	f.Add([]byte(`{"proto":1,"shards":0}` + "\n"))
	f.Add([]byte(`{"proto":1,"shards":1,"snapshot_bytes":-1}` + "\n"))
	f.Add([]byte("[1]\n"))
	f.Add([]byte(`{"proto":1,"shards":2,"shard_writes":[64,1]}` + "\n"))
	f.Add([]byte(`{"proto":1,"shards":3,"shard_writes":[64,1]}` + "\n"))
	f.Add([]byte(`{"proto":1,"shards":1000000000,"shard_writes":[` + strings.Repeat("0,", 2000) + "0]}\n"))
	f.Add([]byte(`{"proto":1,"shards":0,"shard_writes":[` + strings.Repeat("0,", 2000) + "0]}\n"))
	for _, pad := range []int{maxHeaderLine - len(whole), maxHeaderLine, 64 << 10} {
		padded := append(append([]byte(`{"proto":1,"shards":1`), bytes.Repeat([]byte{' '}, pad)...), "}\n"...)
		f.Add(padded)
		f.Add(padded[:len(padded)-1])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		read := func() (Header, error, int, uint64) {
			var before, after runtime.MemStats
			r := bytes.NewReader(in)
			br := bufio.NewReader(r)
			runtime.ReadMemStats(&before)
			h, err := ReadHeader(br)
			runtime.ReadMemStats(&after)
			return h, err, len(in) - r.Len() - br.Buffered(), after.TotalAlloc - before.TotalAlloc
		}
		h, err, consumed, grew := read()
		if limit := uint64(8*min(len(in), maxHeaderLine) + frameSlack); grew > limit {
			if _, _, _, again := read(); again > limit {
				t.Fatalf("a %d-byte input allocated %d bytes (%v)", len(in), again, err)
			}
		}
		if err != nil {
			return
		}
		if consumed > maxHeaderLine {
			t.Fatalf("accepted a %d-byte header line", consumed)
		}
		var back bytes.Buffer
		if err := WriteHeader(&back, h); err != nil {
			t.Fatal(err)
		}
		if again, err := ReadHeader(bufio.NewReader(&back)); err != nil || !reflect.DeepEqual(again, h) {
			t.Fatalf("accepted %+v, which writes back as %q, read as %+v (%v)", h, back.Bytes(), again, err)
		}
	})
}

// frameSlack is what a read may allocate beyond its 8 × input bound:
// the fixed cost of a wrapped error, which an input of a few bytes
// cannot amortise.
const frameSlack = 16 << 10

// FuzzReadFrame: whatever the bytes — a frame cut short, a length forged
// up to the cap, an unknown kind — ReadFrame never panics and allocates
// no more than 8 × the input (+ frameSlack): a declared length reserves
// nothing the stream does not deliver. What it accepts is a whole
// frame: written back, it is the bytes the read consumed.
//
// The seeds are one frame of each kind, each cut at every byte, and
// forged lengths, so that `go test` alone catches a reader that accepts
// a short frame or sizes its buffer by the declaration.
func FuzzReadFrame(f *testing.F) {
	var rec, beat bytes.Buffer
	if err := WriteRecord(&rec, 3, bytes.Repeat([]byte{7}, 40)); err != nil {
		f.Fatal(err)
	}
	if err := WriteHeartbeat(&beat, 99); err != nil {
		f.Fatal(err)
	}
	for _, whole := range [][]byte{rec.Bytes(), beat.Bytes()} {
		for n := 0; n <= len(whole); n++ {
			f.Add(whole[:n])
		}
	}
	for _, declared := range []uint32{41, 4 << 10, 1 << 20, maxFramePayload, maxFramePayload + 1} {
		forged := append([]byte(nil), rec.Bytes()...)
		binary.LittleEndian.PutUint32(forged[5:9], declared)
		f.Add(forged)
	}
	f.Add([]byte{'x', 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		read := func() (Frame, error, int, uint64) {
			var before, after runtime.MemStats
			r := bytes.NewReader(in)
			runtime.ReadMemStats(&before)
			fr, err := ReadFrame(r)
			runtime.ReadMemStats(&after)
			return fr, err, len(in) - r.Len(), after.TotalAlloc - before.TotalAlloc
		}
		fr, err, consumed, grew := read()
		// The counters are the process's: a reading over the bound counts
		// only if a second read repeats it.
		if limit := uint64(8*len(in) + frameSlack); grew > limit {
			if _, _, _, again := read(); again > limit {
				t.Fatalf("a %d-byte input allocated %d bytes (%v)", len(in), again, err)
			}
		}
		if err != nil {
			return
		}
		var back bytes.Buffer
		if fr.Kind == FrameRecord {
			err = WriteRecord(&back, fr.Shard, fr.Payload)
		} else {
			err = WriteHeartbeat(&back, fr.LSN)
		}
		if err != nil || !bytes.Equal(back.Bytes(), in[:consumed]) {
			t.Fatalf("accepted %+v from %x, which writes back as %x", fr, in[:consumed], back.Bytes())
		}
	})
}
