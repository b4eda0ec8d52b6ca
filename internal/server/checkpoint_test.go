package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/persist"
	"bayestree/internal/wal"
)

// The bounded-recovery properties: a checkpoint's locked section syncs
// nothing, a checkpoint that dies before its manifest loses nothing, the
// log-size trigger keeps every restart's replay under its limit, and a
// crash-looping server leaves no segment files behind.

// classFrame is what one of classPoints' records takes in a segment: a
// label and three coordinates.
var classFrame = wal.FrameBytes(8 * 4)

// segmentFiles counts the WAL segment files under a durability root.
func segmentFiles(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

// TestCheckpointCutSyncsNothing: the part of a checkpoint that holds
// every shard lock rotates the logs and encodes the snapshot without one
// fsync and without creating a file, even with unsynced group-commit
// tails to seal; the sync that follows commits them.
func TestCheckpointCutSyncsNothing(t *testing.T) {
	xs, ys := classPoints(200)
	dir := t.TempDir()
	s, err := OpenDurableServer(DurabilityOptions{Dir: dir, FsyncEvery: time.Hour}, Config{}, func() (*Server, error) {
		return NewEmpty(3, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	})
	if err == nil {
		err = s.Recover()
	}
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseDurability()
	for i := range xs {
		if err := s.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	syncs := func() int64 { return s.Stats().WALSyncs }
	before, files := syncs(), segmentFiles(t, dir)
	s.dur.ckptMu.Lock()
	starts, writes, cut, _, snap, err := s.cut(nil)
	s.dur.ckptMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := syncs(); got != before {
		t.Fatalf("the locked section ran %d fsyncs", got-before)
	}
	if got := segmentFiles(t, dir); got != files {
		t.Fatalf("the locked section created %d segment files", got-files)
	}
	var counted uint64
	for _, n := range writes {
		counted += n
	}
	if counted != uint64(len(xs)) {
		t.Fatalf("the cut counted %d writes over its shards, want %d", counted, len(xs))
	}
	if cut != int64(len(xs))*classFrame || snap.Len() == 0 {
		t.Fatalf("cut took %d bytes and encoded %d, want %d and a snapshot", cut, snap.Len(), int64(len(xs))*classFrame)
	}
	for i, lg := range s.dur.logs {
		if err := lg.Sync(); err != nil {
			t.Fatal(err)
		}
		if lg.Segment() != starts[i] {
			t.Fatalf("shard %d appends into segment %d, the cut starts replay at %d", i, lg.Segment(), starts[i])
		}
	}
	if got := syncs() - before; got != int64(len(s.dur.logs)) {
		t.Fatalf("syncing after the cut ran %d fsyncs, want one per sealed segment (%d)", got, len(s.dur.logs))
	}
}

// TestCheckpointCrashBeforeManifest: a checkpoint whose manifest write
// fails — its rename meets a directory where the manifest was — has cut
// the logs and written its snapshot but committed nothing. Writes go on
// into the segments after the cut; then the process dies, leaving the
// previous manifest on disk. The next start replays from the previous
// pair and holds every acknowledged record, digit-identical to a run
// that never checkpointed.
func TestCheckpointCrashBeforeManifest(t *testing.T) {
	const n = 200
	xs, ys := classPoints(n)
	dir := t.TempDir()
	a := newDurableClass(t, dir, 2)
	for i := 0; i < n/2; i++ {
		if err := a.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	mpath := filepath.Join(dir, persist.ManifestName)
	saved, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(mpath); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(mpath, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	gen := a.Generation()
	if err := a.Checkpoint(); err == nil {
		t.Fatal("a checkpoint committed over a failing manifest write")
	}
	if a.Generation() != gen {
		t.Fatalf("generation %d after a failed checkpoint, want %d", a.Generation(), gen)
	}
	for i := n / 2; i < n; i++ {
		if err := a.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The failed cut gave its bytes back: all n records still count.
	if got := a.Stats().WALBytesSinceCheckpoint; got != n*classFrame {
		t.Fatalf("%d bytes since the last checkpoint, want %d", got, n*classFrame)
	}
	crash(t, a.dur)
	if err := os.RemoveAll(mpath); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, saved, 0o644); err != nil {
		t.Fatal(err)
	}

	b := newDurableClass(t, dir, 2)
	defer b.CloseDurability()
	if st := b.Stats(); st.WALReplayed != n || st.Observations != n {
		t.Fatalf("replayed %d records to %d observations, want %d", st.WALReplayed, st.Observations, n)
	}
	ref, err := NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if err := ref.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snapshotBytes(t, b), snapshotBytes(t, ref)) {
		t.Fatal("the recovered model is not the uninterrupted run's")
	}
}

// TestCheckpointDrainRestartCrash: a drain checkpoint seals the written
// segments and removes them, leaving no segment file at all. The next
// incarnation must append at or past the manifest's ShardStart, or a
// crash after it would replay none of its acknowledged records.
func TestCheckpointDrainRestartCrash(t *testing.T) {
	const n = 120
	xs, ys := classPoints(n)
	dir := t.TempDir()
	a := newDurableClass(t, dir, 2)
	for i := 0; i < n/2; i++ {
		if err := a.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := a.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if got := segmentFiles(t, dir); got != 0 {
		t.Fatalf("the drain left %d segment files, want none", got)
	}
	b := newDurableClass(t, dir, 2)
	for i := n / 2; i < n; i++ {
		if err := b.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	crash(t, b.dur)
	c := newDurableClass(t, dir, 2)
	defer c.CloseDurability()
	if st := c.Stats(); st.WALReplayed != n/2 || st.Observations != n {
		t.Fatalf("replayed %d records to %d observations, want %d and %d", st.WALReplayed, st.Observations, n/2, n)
	}
}

// TestCheckpointFailureBacksOff: a background checkpoint that fails — its
// manifest rename meets a directory — is reported in /stats, and the
// next try waits for another limit's worth of log instead of starting on
// the next append. Once the way is clear, that try commits and clears
// the report.
func TestCheckpointFailureBacksOff(t *testing.T) {
	setCheckpointFloor(t, 4<<10)
	xs, ys := classPoints(400)
	dir := t.TempDir()
	s := newDurableClass(t, dir, 2)
	defer s.CloseDurability()
	next := 0
	insert := func(k int) {
		t.Helper()
		for ; k > 0; k-- {
			if err := s.Insert(xs[next], ys[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	mpath := filepath.Join(dir, persist.ManifestName)
	saved, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(mpath); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(mpath, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	limit := s.dur.limit()
	insert(int(limit/classFrame) + 10)
	waitFor(t, 10*time.Second, "a background checkpoint to fail", func() bool { return s.Stats().CheckpointError != "" })
	s.dur.bg.Wait()
	if err := os.RemoveAll(mpath); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	insert(20)
	s.dur.bg.Wait()
	if st := s.Stats(); st.Checkpoints != 1 || st.CheckpointError == "" {
		t.Fatalf("%d checkpoints, error %q: the failed one was retried before another limit of log", st.Checkpoints, st.CheckpointError)
	}
	insert(int(limit/classFrame) + 10)
	waitFor(t, 10*time.Second, "the retry to commit", func() bool {
		st := s.Stats()
		return st.Checkpoints == 2 && st.CheckpointError == ""
	})
}

// TestCheckpointRacesFollowerBootstrap: with a floor low enough that the
// log-size trigger fires every few dozen inserts, a follower bootstraps
// over /replicate while the primary ingests. Background checkpoints and
// the bootstrap's own serialise on one path; the follower ends
// digit-identical to the primary.
func TestCheckpointRacesFollowerBootstrap(t *testing.T) {
	setCheckpointFloor(t, 2<<10)
	const n = 600
	xs, ys := classPoints(n)
	prim := newDurableClass(t, t.TempDir(), 3)
	defer prim.CloseDurability()
	ts := httptest.NewServer(prim.Handler())
	defer killServer(ts)
	done := make(chan error, 1)
	go func() {
		for i := range xs {
			if err := prim.Insert(xs[i], ys[i]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	foll, err := NewFollowerServer(DurabilityOptions{Dir: t.TempDir()}, Config{}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer foll.stopTail()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "follower to apply every insert", func() bool { return appliedLSN(foll) == n })
	if st := prim.Stats(); st.Checkpoints < 4 {
		t.Fatalf("%d checkpoints over %d inserts: the trigger did not run", st.Checkpoints, n)
	}
	if !bytes.Equal(snapshotBytes(t, foll.Current()), snapshotBytes(t, prim)) {
		t.Fatal("the follower is not the primary")
	}
	if err := foll.Persist(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartLoopReplayBounded: twenty restarts, with writes between
// every other one. No restart replays as much as the limit of the
// snapshot it starts from, none creates a segment file, one without
// writes before it leaves the segment count as it found it, and the
// last model is the uninterrupted run's.
func TestRestartLoopReplayBounded(t *testing.T) {
	setCheckpointFloor(t, 8<<10)
	xs, ys := classPoints(300)
	dir := t.TempDir()
	next := 0
	for r := 0; r < 20; r++ {
		s, err := OpenDurableServer(DurabilityOptions{Dir: dir}, Config{}, func() (*Server, error) {
			return NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
		})
		if err != nil {
			t.Fatal(err)
		}
		limit, files := s.dur.limit(), segmentFiles(t, dir)
		if err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.Observations != next {
			t.Fatalf("restart %d: %d observations, %d were acknowledged", r, st.Observations, next)
		}
		if st.WALReplayed*classFrame >= limit {
			t.Fatalf("restart %d replayed %d records, the limit is %d bytes", r, st.WALReplayed, limit)
		}
		if got := segmentFiles(t, dir); got != files {
			t.Fatalf("restart %d: recovery turned %d segment files into %d", r, files, got)
		}
		if r%2 == 1 {
			for i := 0; i < 30; i++ {
				if err := s.Insert(xs[next], ys[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}
		}
		if r == 19 {
			ref, err := NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < next; i++ {
				if err := ref.Insert(xs[i], ys[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(snapshotBytes(t, s), snapshotBytes(t, ref)) {
				t.Fatal("the model after twenty restarts is not the uninterrupted run's")
			}
		}
		if err := s.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		if got := segmentFiles(t, dir); r%2 == 0 && got != files {
			t.Fatalf("restart %d without writes turned %d segment files into %d", r, files, got)
		}
	}
}

// TestFollowerBootstrapOverEmptySegment: a follower directory whose
// shard logs end in an empty segment — what an Open that created its
// segment before the first append left behind — bootstraps with replay
// starting past it, logs the tail into segments of its own, and a
// restart recovers exactly the primary's model.
func TestFollowerBootstrapOverEmptySegment(t *testing.T) {
	const n = 80
	xs, ys := classPoints(n)
	prim := newDurableClass(t, t.TempDir(), 2)
	defer prim.CloseDurability()
	ts := httptest.NewServer(prim.Handler())
	defer killServer(ts)
	follDir := t.TempDir()
	for i := 0; i < 2; i++ {
		lg, err := wal.Open(shardWALDir(follDir, i), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := lg.Append(encodeRecord(xs[0], int64(ys[0]))); err != nil {
			t.Fatal(err)
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shardWALDir(follDir, i), fmt.Sprintf("%016d.wal", 2)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	foll, err := NewFollowerServer(DurabilityOptions{Dir: follDir}, Config{}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if err := prim.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "follower to apply every insert", func() bool { return appliedLSN(foll) == n })
	foll.stopTail()
	s := foll.Current()
	for i, start := range s.dur.manifest.ShardStart {
		if start != 3 {
			t.Fatalf("shard %d replays from segment %d, want 3: past the empty one", i, start)
		}
	}
	if err := s.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	// With its primary gone, the restarted follower serves what it
	// recovered, not a fresh bootstrap.
	killServer(ts)
	foll2, err := NewFollowerServer(DurabilityOptions{Dir: follDir}, Config{}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	s2 := foll2.Current()
	defer s2.CloseDurability()
	defer foll2.stopTail()
	if !bytes.Equal(snapshotBytes(t, s2), snapshotBytes(t, prim)) {
		t.Fatal("the restarted follower is not the primary")
	}
}

// parkPendigits is the repo benchmark's mixed_durable directory in
// process: a durable 4-shard Pendigits server (group commit every 100 ms)
// logs the first logged points of the shuffled set, its log-size trigger
// checkpointing in the background, and is closed without a checkpoint of
// its own.
func parkPendigits(tb testing.TB, dir string, logged int) {
	tb.Helper()
	d, err := dataset.Pendigits(1)
	if err != nil {
		tb.Fatal(err)
	}
	d.Shuffle(1)
	s, err := OpenDurableServer(DurabilityOptions{Dir: dir, FsyncEvery: 100 * time.Millisecond}, Config{}, func() (*Server, error) {
		return NewEmpty(4, core.DefaultConfig(d.Dim()), d.Classes(), core.MultiOptions{}, Config{})
	})
	if err == nil {
		err = s.Recover()
	}
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < logged; i++ {
		if err := s.Insert(d.X[i], d.Y[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.CloseDurability(); err != nil {
		tb.Fatal(err)
	}
}

// openParked opens and recovers a parked durability directory.
func openParked(tb testing.TB, dir string) *Server {
	tb.Helper()
	s, err := OpenDurableServer(DurabilityOptions{Dir: dir, FsyncEvery: 100 * time.Millisecond}, Config{}, func() (*Server, error) {
		return nil, fmt.Errorf("%s holds no manifest", dir)
	})
	if err == nil {
		err = s.Recover()
	}
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestRestartReplayCeilingBenchShape pins the bound on the repo
// benchmark's shape: after 7,100 logged inserts (≈ 1 MB of log) the
// restart replays at most 2,000 records — the 256 KiB floor is ≈ 1,820
// Pendigits records — and holds every one of the 7,100.
func TestRestartReplayCeilingBenchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("7,100 inserts")
	}
	dir := t.TempDir()
	parkPendigits(t, dir, 7100)
	s := openParked(t, dir)
	defer s.CloseDurability()
	st := s.Stats()
	if st.WALReplayed > 2000 || st.Observations != 7100 {
		t.Fatalf("replayed %d records to %d observations; want at most 2000 and 7100", st.WALReplayed, st.Observations)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*")); len(snaps) != 1 || !strings.HasSuffix(snaps[0], s.dur.manifest.Snapshot) {
		t.Fatalf("snapshots on disk %v, the manifest names %s", snaps, s.dur.manifest.Snapshot)
	}
}
