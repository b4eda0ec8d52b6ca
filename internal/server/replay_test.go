package server

import (
	"bytes"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/wal"
)

// openFDs counts the process's open descriptors: a replay that leaves a
// log reader (or a segment) open shows here.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestReplayGroupsErrorAndCleanup: one shard's log ends in a record no
// write path could have logged — a well-framed insert of a label the
// model does not predict, which only a hand-written log can hold. The
// groups of the other shards replay their logs to the end all the same;
// Recover returns once every group has, names the shard that failed,
// leaves no goroutine and no descriptor behind, and the server stays
// recovering.
func TestReplayGroupsErrorAndCleanup(t *testing.T) {
	const shards, n, bad = 4, 200, 2
	xs, ys := classPoints(n)
	dir := t.TempDir()
	a := newDurableClass(t, dir, shards)
	for i := range xs {
		if err := a.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	crash(t, a.dur)
	for _, lg := range a.dur.logs {
		lg.Close()
	}
	lg, err := wal.Open(shardWALDir(dir, bad), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(encodeRecord([]float64{1, 2, 3}, 99)); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := OpenDurableServer(DurabilityOptions{Dir: dir}, Config{}, func() (*Server, error) {
		t.Fatal("a directory with a manifest was bootstrapped")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.dur.lock.Close()
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	err = s.Recover()
	if err == nil || !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "99") {
		t.Fatalf("Recover over an unknown label in shard %d's log: %v", bad, err)
	}
	if !s.Recovering() {
		t.Fatal("a failed recovery left the server serving")
	}
	if st := s.Stats(); st.WALReplayed != n || st.WALDroppedRecords != 0 {
		t.Fatalf("replayed %d records and dropped %d; the logs held %d good ones", st.WALReplayed, st.WALDroppedRecords, n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		t.Fatalf("%d goroutines before Recover, %d after it returned", goroutines, now)
	}
	// (Fewer is possible: the collector closes what earlier tests dropped.)
	if now := openFDs(t); now > fds {
		t.Fatalf("%d descriptors open before Recover, %d after it failed", fds, now)
	}
	// Every shard but the bad one holds what its log held.
	for i, sh := range s.shards {
		if got, want := sh.tree.Len(), a.shards[i].tree.Len(); got != want {
			t.Fatalf("shard %d replayed to %d observations, the crashed server held %d", i, got, want)
		}
	}
}

// TestReplayOneProc: side-by-side replay is scheduling, not arithmetic.
// On one processor, over one, three and seven shards, either workload
// recovers to the bytes of the model that crashed.
func TestReplayOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 300
	xs, ys := classPoints(n)
	rng := rand.New(rand.NewSource(11))
	for _, shards := range []int{1, 3, 7} {
		dir := t.TempDir()
		a := newDurableClass(t, dir, shards)
		for i := range xs {
			if err := a.Insert(xs[i], ys[i]); err != nil {
				t.Fatal(err)
			}
		}
		want := snapshotBytes(t, a)
		crash(t, a.dur)
		b := newDurableClass(t, dir, shards)
		if st := b.Stats(); st.WALReplayed != n {
			t.Fatalf("%d shards: replayed %d of %d records", shards, st.WALReplayed, n)
		}
		if !bytes.Equal(snapshotBytes(t, b), want) {
			t.Fatalf("%d shards: the recovered classifier is not the one that crashed", shards)
		}
		b.CloseDurability()

		dir = t.TempDir()
		c := newDurableCluster(t, dir, shards)
		for i := 0; i < n; i++ {
			if _, err := c.Insert([]float64{rng.Float64(), rng.Float64()}, 1+i%7); err != nil {
				t.Fatal(err)
			}
		}
		want = snapshotBytes(t, c)
		crash(t, c.dur)
		d := newDurableCluster(t, dir, shards)
		// The snapshot is compared before Stats is read: a ClusTree fades
		// the weights a read touches, in place.
		if !bytes.Equal(snapshotBytes(t, d), want) {
			t.Fatalf("%d shards: the recovered clustering is not the one that crashed", shards)
		}
		if st := d.Stats(); st.WALReplayed != n || d.Clock() != n {
			t.Fatalf("%d shards: replayed %d of %d records to clock %d", shards, st.WALReplayed, n, d.Clock())
		}
		d.CloseDurability()
	}
}

// TestRecoveryTimersInStats: a durable restart reports where its time
// went — the parts are measured, and no larger than the whole; the
// checkpoint part only when recovery checkpoints (a fresh directory, or
// a tail past the limit) and 0 otherwise — and a memory-only server's
// /stats does not mention recovery or checkpoints at all.
func TestRecoveryTimersInStats(t *testing.T) {
	xs, ys := classPoints(300)
	dir := t.TempDir()
	a := newDurableClass(t, dir, 2)
	if st := a.Stats(); st.CheckpointMs <= 0 || st.Checkpoints != 1 {
		t.Fatalf("a fresh directory's recovery did not checkpoint: %+v", st)
	}
	for i := range xs[:150] {
		if err := a.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 150; i < 300; i++ {
		if err := a.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	crash(t, a.dur)
	check := func(s *Server, checkpointed bool) {
		t.Helper()
		st := s.Stats()
		parts := []float64{st.SnapshotDecodeMs, st.WALReplayMs, st.MirrorBuildMs, st.CheckpointMs}
		sum := 0.0
		for i, p := range parts {
			if p <= 0 && (i < 3 || checkpointed) {
				t.Fatalf("part %d of the recovery was not timed: %+v", i, parts)
			}
			sum += p
		}
		if !checkpointed && (st.CheckpointMs != 0 || st.Checkpoints != 0) {
			t.Fatalf("a short tail's recovery checkpointed: %+v", parts)
		}
		if st.RecoverMs < sum {
			t.Fatalf("recover_ms %.3f is less than its parts %v", st.RecoverMs, parts)
		}
	}
	b := newDurableClass(t, dir, 2)
	check(b, false)
	if st := b.Stats(); st.WALBytesSinceCheckpoint != 150*wal.FrameBytes(8*4) {
		t.Fatalf("wal_bytes_since_checkpoint %d after replaying 150 records", st.WALBytesSinceCheckpoint)
	}
	crash(t, b.dur)
	setCheckpointFloor(t, 1)
	c := newDurableClass(t, dir, 2)
	defer c.CloseDurability()
	check(c, true)

	mem, err := NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	body := httptest.NewRecorder()
	mem.Handler().ServeHTTP(body, httptest.NewRequest("GET", "/stats", nil))
	if body.Code != 200 || !strings.Contains(body.Body.String(), "wal_replayed") {
		t.Fatalf("/stats answered %d: %s", body.Code, body.Body.String())
	}
	for _, key := range []string{"recover_ms", "snapshot_decode_ms", "wal_replay_ms", "mirror_build_ms", "checkpoint",
		"wal_bytes_since_checkpoint"} {
		if strings.Contains(body.Body.String(), key) {
			t.Fatalf("a memory-only /stats mentions %s: %s", key, body.Body.String())
		}
	}
}
