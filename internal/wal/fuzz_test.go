package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// tornLog is the valid multi-segment log FuzzTornOrCorrupt damages: the
// bytes of each segment, the offset just past each of its frames, and
// every record in replay order. No record is empty (see laterFrame).
type tornLog struct {
	segs [][]byte
	ends [][]int
	recs [][]byte
}

// buildTornLog appends 4, 4 and 6 records of 6–9 bytes, rotating
// between the groups, so the log has two full segments before a final
// one of several records.
func buildTornLog(f *testing.F) tornLog {
	dir := f.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	var tl tornLog
	for g, n := range []int{4, 4, 6} {
		if g > 0 {
			if _, err := l.Rotate(); err != nil {
				f.Fatal(err)
			}
		}
		var ends []int
		end := 0
		for i := 0; i < n; i++ {
			rec := []byte(fmt.Sprintf("rec-%02d%s", len(tl.recs), strings.Repeat("~", len(tl.recs)%4)))
			if err := l.Append(rec); err != nil {
				f.Fatal(err)
			}
			end += frameHeader + len(rec)
			ends = append(ends, end)
			tl.recs = append(tl.recs, rec)
		}
		tl.ends = append(tl.ends, ends)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	for s := range tl.ends {
		buf, err := os.ReadFile(segPath(dir, uint64(s+1)))
		if err != nil {
			f.Fatal(err)
		}
		if len(buf) != tl.ends[s][len(tl.ends[s])-1] {
			f.Fatalf("segment %d holds %d bytes, its frames %d", s+1, len(buf), tl.ends[s][len(tl.ends[s])-1])
		}
		tl.segs = append(tl.segs, buf)
	}
	return tl
}

// start is the offset of frame i of segment s.
func (tl *tornLog) start(s, i int) int {
	if i == 0 {
		return 0
	}
	return tl.ends[s][i-1]
}

// damage applies ops to a copy of the log's segments, four bytes an op:
// kind, segment, offset, value. Kind 0 xors the byte at the offset with
// the value, kind 1 cuts the segment at the offset, kind 2 appends the
// offset and value bytes to the final segment — garbage after the tail.
// Offsets wrap to the segment's length.
func (tl *tornLog) damage(ops []byte) [][]byte {
	segs := make([][]byte, len(tl.segs))
	for s := range segs {
		segs[s] = bytes.Clone(tl.segs[s])
	}
	for ; len(ops) >= 4; ops = ops[4:] {
		s := int(ops[1]) % len(segs)
		switch ops[0] % 3 {
		case 0:
			if len(segs[s]) > 0 {
				segs[s][int(ops[2])%len(segs[s])] ^= ops[3]
			}
		case 1:
			segs[s] = segs[s][:int(ops[2])%(len(segs[s])+1)]
		case 2:
			last := len(segs) - 1
			segs[last] = append(segs[last], ops[2], ops[3])
		}
	}
	return segs
}

// verdict is what the damaged segments promise: how many records lie
// wholly before the first damaged byte, and whether the damage must be
// reported as corruption. In a segment before the final one any damage
// is, except a cut at a frame boundary, which leaves whole frames and
// nothing to detect. In the final segment damage is corruption when an
// intact record follows the damaged one; otherwise the damaged record
// may be the torn tail of a crash.
func (tl *tornLog) verdict(segs [][]byte) (intact int, corrupt bool) {
	for s, orig := range tl.segs {
		got := segs[s]
		d := 0
		for d < len(orig) && d < len(got) && orig[d] == got[d] {
			d++
		}
		if d == len(orig) && d == len(got) {
			intact += len(tl.ends[s])
			continue
		}
		f := 0 // the damaged frame: every frame before it is intact
		for f < len(tl.ends[s]) && tl.ends[s][f] <= d {
			f++
		}
		intact += f
		if s < len(tl.segs)-1 {
			return intact, d < len(got) || d != tl.start(s, f)
		}
		for g := f + 1; g < len(tl.ends[s]); g++ {
			lo, hi := tl.start(s, g), tl.ends[s][g]
			if hi <= len(got) && bytes.Equal(got[lo:hi], orig[lo:hi]) {
				return intact, true
			}
		}
		return intact, false
	}
	return intact, false
}

// replayDir reads dir from its first segment until EOF or an error,
// copying each record.
func replayDir(dir string) (recs [][]byte, dropped int, err error) {
	r, err := OpenReader(dir, 1)
	if err != nil {
		return nil, 0, err
	}
	defer r.Close()
	for {
		p, err := r.Next()
		if err == io.EOF {
			return recs, r.Dropped(), nil
		}
		if err != nil {
			return recs, r.Dropped(), err
		}
		recs = append(recs, bytes.Clone(p))
	}
}

// FuzzTornOrCorrupt damages a valid three-segment log with byte flips,
// cuts and garbage appended after the tail, and holds the torn-versus-
// corrupt verdict to its contract:
//   - every record before the first damaged byte is replayed, in order;
//   - damage anywhere but the final record of the final segment is
//     ErrCorrupt (and no error is anything else);
//   - after a replay that ends without error, Open repairs the tail
//     without removing any record that replay returned.
//
// The seeds include the mid-segment length fault and payload flips in
// both a full and the final segment, which catch a torn verdict taken
// without looking for a later record and a skipped CRC check.
func FuzzTornOrCorrupt(f *testing.F) {
	tl := buildTornLog(f)
	flip := func(s, off int, v byte) []byte { return []byte{0, byte(s), byte(off), v} }
	last := len(tl.segs) - 1
	n := len(tl.ends[last])
	lengthAt := func(s, i int) int { return tl.ends[s][i] - tl.start(s, i) - frameHeader }
	// A middle record of the final segment claims 1,000 bytes.
	mid := tl.start(last, 2)
	f.Add(append(flip(last, mid, byte(lengthAt(last, 2))^0xE8), flip(last, mid+1, 0x03)...))
	// The last but one claims exactly the rest of the segment.
	pen := n - 2
	f.Add(flip(last, tl.start(last, pen), byte(lengthAt(last, pen)^(lengthAt(last, pen)+tl.ends[last][n-1]-tl.ends[last][pen]))))
	// Payload bit rot in a full segment and mid final segment.
	f.Add(flip(0, tl.start(0, 1)+frameHeader+2, 0x20))
	f.Add(flip(last, tl.start(last, 3)+frameHeader+1, 0x01))
	// A full segment cut mid-frame, and its first length field damaged.
	f.Add([]byte{1, 1, byte(tl.start(1, 2) + 5), 0})
	f.Add(flip(1, 0, 0x40))
	// Torn tails: a cut into the last record, a bad CRC on it, garbage.
	f.Add([]byte{1, byte(last), byte(tl.ends[last][n-1] - 3), 0})
	f.Add(flip(last, tl.start(last, n-1)+5, 0x10))
	f.Add([]byte{2, 0, 0x07, 0x00})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		segs := tl.damage(ops)
		dir := t.TempDir()
		for s, buf := range segs {
			if err := os.WriteFile(segPath(dir, uint64(s+1)), buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		intact, corrupt := tl.verdict(segs)
		got, dropped, err := replayDir(dir)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("replay: %v, want EOF or ErrCorrupt", err)
		}
		if len(got) < intact {
			t.Fatalf("replayed %d records (err %v, dropped %d), want the %d before the damage", len(got), err, dropped, intact)
		}
		for i := 0; i < intact; i++ {
			if !bytes.Equal(got[i], tl.recs[i]) {
				t.Fatalf("record %d = %q, want %q", i, got[i], tl.recs[i])
			}
		}
		if corrupt && err == nil {
			t.Fatalf("damage before an intact record replayed %d records, dropped %d, without ErrCorrupt", len(got), dropped)
		}
		if err != nil {
			return
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open after a replay that ended cleanly: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		again, dropped, err := replayDir(dir)
		if err != nil || dropped != 0 || len(again) != len(got) {
			t.Fatalf("after Open: %d records, %d dropped, %v; replay before it returned %d", len(again), dropped, err, len(got))
		}
		for i := range got {
			if !bytes.Equal(again[i], got[i]) {
				t.Fatalf("after Open record %d = %q, replay before it returned %q", i, again[i], got[i])
			}
		}
	})
}
