package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// faultFile wraps an *os.File behind the segmentFile seam and fails
// selected operations: the Nth write lands only half the frame before
// erroring (a torn write), the Nth fsync reports an I/O error, and
// Truncate can be made to fail so the rollback path itself breaks.
// Counters are shared across segments via the injector, so "the 3rd
// write" means the 3rd write through the log, not per segment.
type faultFile struct {
	f   *os.File
	inj *faultInjector
}

type faultInjector struct {
	mu         sync.Mutex
	writes     int
	syncs      int
	failWrite  int      // fail the Nth write (1-based); 0 = never
	failSync   int      // fail the Nth fsync (1-based); 0 = never
	breakTrunc bool     // make Truncate fail too (rollback impossible)
	synced     []string // the segment names fsynced, in order
}

var errInjected = errors.New("injected I/O error")

// install swaps openSegmentFile for the injector's wrapper and returns
// a restore func for defer.
func (inj *faultInjector) install() func() {
	prev := openSegmentFile
	openSegmentFile = func(f *os.File) segmentFile { return &faultFile{f: f, inj: inj} }
	return func() { openSegmentFile = prev }
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.inj.mu.Lock()
	ff.inj.writes++
	fail := ff.inj.failWrite != 0 && ff.inj.writes == ff.inj.failWrite
	ff.inj.mu.Unlock()
	if fail {
		// A torn write: half the frame reaches the disk, then the
		// device errors. This is the shape a crash or dying disk
		// leaves behind.
		n, _ := ff.f.Write(p[:len(p)/2])
		return n, errInjected
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.inj.mu.Lock()
	ff.inj.syncs++
	ff.inj.synced = append(ff.inj.synced, filepath.Base(ff.f.Name()))
	fail := ff.inj.failSync != 0 && ff.inj.syncs == ff.inj.failSync
	ff.inj.mu.Unlock()
	if fail {
		return errInjected
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	ff.inj.mu.Lock()
	broken := ff.inj.breakTrunc
	ff.inj.mu.Unlock()
	if broken {
		return errInjected
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	return ff.f.Seek(offset, whence)
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// TestFaultPartialAppendRolledBack: when a write lands only part of a
// frame before erroring, the log truncates the torn tail away and keeps
// accepting appends — and replay sees exactly the acknowledged records,
// with nothing dropped and no torn frame surfaced.
func TestFaultPartialAppendRolledBack(t *testing.T) {
	inj := &faultInjector{failWrite: 3}
	defer inj.install()()

	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var acked [][]byte
	for i := 0; i < 6; i++ {
		rec := []byte(strings.Repeat("x", 20+i))
		err := l.Append(rec)
		if i == 2 {
			if !errors.Is(err, errInjected) {
				t.Fatalf("append %d: err = %v, want injected fault", i, err)
			}
			continue // not acknowledged: must not appear on replay
		}
		if err != nil {
			t.Fatalf("append %d after rollback: %v", i, err)
		}
		acked = append(acked, rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, dropped := readAll(t, dir, 1)
	if dropped != 0 {
		t.Fatalf("replay dropped %d records: rollback left a torn frame behind", dropped)
	}
	if len(got) != len(acked) {
		t.Fatalf("replayed %d records, want the %d acknowledged ones", len(got), len(acked))
	}
	for i := range acked {
		if string(got[i]) != string(acked[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], acked[i])
		}
	}
}

// TestFaultRollbackFailurePoisons: when the write fails AND the
// truncate that would roll it back fails, the log poisons itself —
// every later append reports the sticky error instead of writing after
// the hole and turning a torn tail into mid-segment corruption. The
// acknowledged prefix still replays, with the torn frame dropped as a
// tail, never surfaced as a record.
func TestFaultRollbackFailurePoisons(t *testing.T) {
	inj := &faultInjector{failWrite: 3, breakTrunc: true}
	defer inj.install()()

	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var acked [][]byte
	for i := 0; i < 2; i++ {
		rec := []byte(strings.Repeat("a", 32))
		if err := l.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		acked = append(acked, rec)
	}
	if err := l.Append([]byte(strings.Repeat("b", 32))); !errors.Is(err, errInjected) {
		t.Fatalf("torn append err = %v, want injected fault", err)
	}
	// Sticky poison: every subsequent append refuses.
	for i := 0; i < 3; i++ {
		err := l.Append([]byte("after"))
		if err == nil || !strings.Contains(err.Error(), "background sync") {
			t.Fatalf("append after failed rollback: err = %v, want sticky poison", err)
		}
	}
	l.Close()

	// Replay: the acked prefix, the half-written frame dropped as a
	// torn tail — never handed to the caller as a record.
	got, dropped := readAll(t, dir, 1)
	if len(got) != len(acked) {
		t.Fatalf("replayed %d records, want %d", len(got), len(acked))
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want the one torn frame", dropped)
	}
	for _, p := range got {
		if strings.Contains(string(p), "b") || strings.Contains(string(p), "after") {
			t.Fatalf("unacknowledged record surfaced on replay: %q", p)
		}
	}
}

// TestFaultSyncErrorSurfaces: with FsyncEvery 0 every append fsyncs
// inline, so an fsync fault fails that append; the log is not poisoned
// (the frame itself is intact) and later appends succeed. Replay still
// returns every intact frame.
func TestFaultSyncErrorSurfaces(t *testing.T) {
	inj := &faultInjector{failSync: 2}
	defer inj.install()()

	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("one")); err != nil {
		t.Fatalf("append 0: %v", err)
	}
	if err := l.Append([]byte("two")); !errors.Is(err, errInjected) {
		t.Fatalf("append with failing fsync: err = %v, want injected fault", err)
	}
	if err := l.Append([]byte("three")); err != nil {
		t.Fatalf("append after fsync fault: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, dropped := readAll(t, dir, 1)
	// "two" hit the disk (only its fsync failed), so replay may return
	// it — the contract is on acknowledged records, which must all be
	// there, in order, with nothing torn.
	if dropped != 0 {
		t.Fatalf("dropped %d records", dropped)
	}
	want := []string{"one", "two", "three"}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestFaultGroupCommitSyncPoisons: under group commit a background
// fsync failure is detected at the next tick and surfaces as a sticky
// error on the next Append — the log refuses to keep acknowledging
// writes whose durability it can no longer promise.
func TestFaultGroupCommitSyncPoisons(t *testing.T) {
	inj := &faultInjector{failSync: 1}
	defer inj.install()()

	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("rec")); err != nil {
		t.Fatalf("append: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := l.Append([]byte("rec"))
		if err != nil {
			if !strings.Contains(err.Error(), "background sync") {
				t.Fatalf("err = %v, want sticky background-sync poison", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background fsync fault never surfaced on Append")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFaultTornWriteThenCrashReplay simulates the crash path: the torn
// write happens, the process dies before any rollback is observable to
// a new incarnation (we just reopen the directory), and Open's tail
// repair must drop the partial frame so the new log never interleaves
// fresh records behind it.
func TestFaultTornWriteThenCrashReplay(t *testing.T) {
	dir := t.TempDir()
	func() {
		inj := &faultInjector{failWrite: 2, breakTrunc: true}
		defer inj.install()()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("durable")); err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("torn-away")); !errors.Is(err, errInjected) {
			t.Fatalf("err = %v, want injected fault", err)
		}
		// Crash: no Close, no rollback. The half frame stays on disk.
	}()

	// A fresh Open (production openSegmentFile) repairs the tail.
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if err := l.Append([]byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(t, dir, 1)
	want := []string{"durable", "after-crash"}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records %q, want %v", len(got), got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRotateSyncsNothing: Rotate seals a segment holding unsynced
// group-commit appends without an fsync and without creating its
// successor — a checkpoint rotates under every shard lock. The next Sync
// commits the sealed segment before the one appended after it.
func TestRotateSyncsNothing(t *testing.T) {
	inj := &faultInjector{}
	defer inj.install()()
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("before the cut")); err != nil {
			t.Fatal(err)
		}
	}
	start, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(dir); inj.syncs != 0 || len(segs) != 1 || start != 2 {
		t.Fatalf("Rotate fsynced %d times and left segments %v, starting replay at %d", inj.syncs, segs, start)
	}
	if err := l.Append([]byte("after the cut")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	want := []string{"0000000000000001.wal", "0000000000000002.wal"}
	if strings.Join(inj.synced, " ") != strings.Join(want, " ") {
		t.Fatalf("Sync fsynced %v, want %v in that order", inj.synced, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := readAll(t, dir, start); len(got) != 1 {
		t.Fatalf("replay from the cut read %d records, want 1", len(got))
	}
}
