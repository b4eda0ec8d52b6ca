package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// setSegmentBytes lowers the segment rotation threshold for one test.
func setSegmentBytes(t *testing.T, n int64) {
	prev := segmentBytes
	segmentBytes = n
	t.Cleanup(func() { segmentBytes = prev })
}

// readAll drains a reader into a slice of copied payloads.
func readAll(t *testing.T, dir string, start uint64) ([][]byte, int) {
	t.Helper()
	r, err := OpenReader(dir, start)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	defer r.Close()
	var out [][]byte
	for {
		p, err := r.Next()
		if err == io.EOF {
			return out, r.Dropped()
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, append([]byte(nil), p...))
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, dropped := readAll(t, dir, 1)
	if dropped != 0 {
		t.Fatalf("dropped %d records from a clean log", dropped)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	st := l.Stats()
	if st.Appends != 100 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSegmentRotationAndStart(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records.
	setSegmentBytes(t, 64)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segment() < 3 {
		t.Fatalf("expected several segments, active is %d", l.Segment())
	}
	// Explicit rotation marks a checkpoint boundary; records appended
	// after it are exactly what a replay from the boundary sees.
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := l.Append([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	all, _ := readAll(t, dir, 1)
	if len(all) != 57 {
		t.Fatalf("full replay saw %d records, want 57", len(all))
	}
	tail, _ := readAll(t, dir, boundary)
	if len(tail) != 7 {
		t.Fatalf("replay from boundary saw %d records, want 7", len(tail))
	}
	if string(tail[0]) != "post-0" {
		t.Fatalf("first post-boundary record = %q", tail[0])
	}
	if err := l.RemoveBefore(boundary); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s < boundary {
			t.Fatalf("segment %d survived RemoveBefore(%d)", s, boundary)
		}
	}
	again, _ := readAll(t, dir, boundary)
	if len(again) != 7 {
		t.Fatalf("replay after truncation saw %d records, want 7", len(again))
	}
}

// TestTornTailDropped simulates a crash mid-append: the final record's
// bytes stop short. Replay must drop exactly that record and report it.
func TestTornTailDropped(t *testing.T) {
	for _, cut := range []struct {
		name string
		trim int
	}{
		{"partial_payload", 3},
		{"header_only", 12}, // 10-byte payload + 8 header: leaves a bare partial header
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
					t.Fatal(err)
				}
			}
			seg := l.Segment()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := segPath(dir, seg)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-int64(cut.trim)); err != nil {
				t.Fatal(err)
			}
			got, dropped := readAll(t, dir, 1)
			if len(got) != 9 {
				t.Fatalf("replayed %d records, want 9", len(got))
			}
			if dropped != 1 {
				t.Fatalf("dropped = %d, want 1", dropped)
			}
			// Re-opening for append repairs the tail, so the log stays
			// readable after new records land.
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after torn tail: %v", err)
			}
			if err := l2.Append([]byte("after-crash")); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			got, dropped = readAll(t, dir, 1)
			if len(got) != 10 || dropped != 0 {
				t.Fatalf("after repair: %d records (%d dropped), want 10 (0)", len(got), dropped)
			}
			if string(got[9]) != "after-crash" {
				t.Fatalf("last record = %q", got[9])
			}
		})
	}
}

// TestCorruptMidLogFatal flips payload bytes in the middle of the log:
// that is bit rot, not a torn write, and replay must refuse loudly.
func TestCorruptMidLogFatal(t *testing.T) {
	for _, where := range []string{"mid_segment", "non_final_segment"} {
		t.Run(where, func(t *testing.T) {
			dir := t.TempDir()
			if where == "non_final_segment" {
				setSegmentBytes(t, 64)
			}
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := listSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Corrupt a payload byte of the first record in the first
			// segment — guaranteed not at the final segment's tail.
			path := segPath(dir, segs[0])
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[frameHeader] ^= 0xFF
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := OpenReader(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for {
				_, err := r.Next()
				if err == io.EOF {
					t.Fatalf("mid-log corruption replayed to EOF")
				}
				if err != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("error %v, want ErrCorrupt", err)
					}
					break
				}
			}
			// Open-for-append must refuse the corrupt final segment too
			// (single-segment case) rather than truncating valid data.
			if where == "mid_segment" {
				if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open over corrupt segment: %v, want ErrCorrupt", err)
				}
			}
		})
	}
}

// TestMidSegmentLengthFaultCorrupt: a damaged length field that claims
// past the end of the final segment, on a record with intact records
// behind it, is corruption — not a torn tail whose drop would take the
// acked records after it, nor one a reopen would truncate away.
func TestMidSegmentLengthFaultCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg := l.Segment()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, seg)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := frameHeader + len("record-00")
	binary.LittleEndian.PutUint32(buf[3*frame:], 1000)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; ; i++ {
		p, err := r.Next()
		if err == nil {
			if i >= 3 || string(p) != fmt.Sprintf("record-%02d", i) {
				t.Fatalf("record %d = %q, want only records 0-2 before the fault", i, p)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("after %d records: %v (dropped %d), want ErrCorrupt", i, err, r.Dropped())
		}
		break
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over the faulted segment: %v, want ErrCorrupt", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(len(buf)) {
		t.Fatalf("faulted segment is %d bytes, want %d untouched", fi.Size(), len(buf))
	}
}

// TestBadCRCAtExactTailDropped: a record whose bytes all made it to disk
// but whose payload was half-written (CRC mismatch at the exact end of
// the final segment) is a torn write, not corruption.
func TestBadCRCAtExactTailDropped(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg := l.Segment()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-append a frame with a wrong CRC.
	payload := []byte("torn-payload")
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload)^0xDEAD)
	copy(frame[frameHeader:], payload)
	f, err := os.OpenFile(segPath(dir, seg), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, dropped := readAll(t, dir, 1)
	if len(got) != 5 || dropped != 1 {
		t.Fatalf("replayed %d (%d dropped), want 5 (1)", len(got), dropped)
	}
}

// TestGroupCommit exercises the background committer: appends outnumber
// fsyncs, Sync forces the pending batch down, Close flushes the rest.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncEvery: time.Hour}) // tick never fires in-test
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := l.Append([]byte("group-commit-record")); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 0 {
		t.Fatalf("premature syncs: %+v", st)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 1 {
		t.Fatalf("Sync did not group-commit: %+v", st)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 1 {
		t.Fatalf("clean Sync fsynced anyway: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(t, dir, 1)
	if len(got) != 50 {
		t.Fatalf("replayed %d records, want 50", len(got))
	}
}

// TestConcurrentAppend is the race-detector proof: appends from many
// goroutines with a fast background committer all land intact.
func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	setSegmentBytes(t, 512)
	l, err := Open(dir, Options{FsyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%03d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, dropped := readAll(t, dir, 1)
	if len(got) != writers*per || dropped != 0 {
		t.Fatalf("replayed %d (%d dropped), want %d (0)", len(got), dropped, writers*per)
	}
}

// TestOpenReaderMissingDir: WAL-less startup is an empty replay, not an
// error.
func TestOpenReaderMissingDir(t *testing.T) {
	r, err := OpenReader(filepath.Join(t.TempDir(), "nope"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next = %v, want EOF", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append([]byte("x")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestConcurrentClose pins the Close contract: racing closers (with a
// live group-commit loop to shut down) must both return cleanly, never
// panic on a double channel close.
func TestConcurrentClose(t *testing.T) {
	l, err := Open(t.TempDir(), Options{FsyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestOpenCreatesNoSegment: an Open that is never appended to leaves no
// file, so a crash-looping process piles up no empty segments. Rotate of
// such a log returns the index NextSegment names without creating it,
// and the first Append creates exactly that segment.
func TestOpenCreatesNoSegment(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		l, err := Open(dir, Options{FsyncEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if seg, err := l.Rotate(); err != nil || seg != 1 {
			t.Fatalf("Rotate of a never-written log = %d, %v; want 1", seg, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := listSegments(dir); len(segs) != 0 {
		t.Fatalf("five Opens without an append left segments %v", segs)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if next, err := NextSegment(dir); err != nil || next != 2 {
		t.Fatalf("NextSegment after one written segment = %d, %v; want 2", next, err)
	}
	if segs, _ := listSegments(dir); len(segs) != 1 || segs[0] != 1 {
		t.Fatalf("segments %v, want [1]", segs)
	}
}

// TestOpenAppendsFromStart: a checkpoint can remove every segment of a
// log, so Open appends from Options.Start when nothing on disk is past
// it — never below where the manifest starts replay — and from one past
// the last segment when that is higher.
func TestOpenAppendsFromStart(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Start: 5})
	if err != nil {
		t.Fatal(err)
	}
	if seg, err := l.Rotate(); err != nil || seg != 5 {
		t.Fatalf("Rotate of a never-written log = %d, %v; want 5", seg, err)
	}
	if err := l.Append([]byte("past the cut")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(t, dir, 5); len(got) != 1 {
		t.Fatalf("replay from segment 5 read %d records, want 1", len(got))
	}
	l, err = Open(dir, Options{Start: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if seg := l.Segment(); seg != 6 {
		t.Fatalf("Open with Start 3 over segment 5 appends into %d, want 6", seg)
	}
}
