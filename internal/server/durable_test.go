package server

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/stream"
	"bayestree/internal/wal"
)

// The durability acceptance property: killing a durable server
// mid-stream (simulated by abandoning it without Close or Checkpoint —
// exactly what a crashed process leaves on disk, since every append is
// a single write syscall) and recovering from snapshot + WAL replay
// must reproduce the exact model bytes of an uninterrupted run.

// classPoints draws a deterministic labelled stream.
func classPoints(n int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(7))
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		label := rng.Intn(3)
		xs[i] = []float64{
			float64(label)*3 + 0.4*rng.NormFloat64(),
			-float64(label)*3 + 0.4*rng.NormFloat64(),
			rng.NormFloat64(),
		}
		ys[i] = label
	}
	return xs, ys
}

// newDurableClass opens a durable classification server over empty
// shards and finishes recovery.
func newDurableClass(t *testing.T, dir string, shards int) *Server {
	t.Helper()
	s, err := OpenDurableServer(DurabilityOptions{Dir: dir}, Config{}, func() (*Server, error) {
		return NewEmpty(shards, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	return s
}

// crash simulates a process kill for a durable server: the kernel
// would close every descriptor — releasing the durability directory's
// flock — while leaving user-space state unsynced, so only the lock is
// released here. WAL contents stay exactly as the "dead" process left
// them.
func crash(t *testing.T, dur *durState) {
	t.Helper()
	if dur == nil || dur.lock == nil {
		t.Fatal("crash: no durability lock held")
	}
	if err := dur.lock.Close(); err != nil {
		t.Fatal(err)
	}
}

// snapshotBytes is a server's full model state, the digit-identity
// comparand. s is a *Server or a *ClusterServer; Served does not carry
// WriteSnapshot, so a generic caller passes its S here.
func snapshotBytes(t *testing.T, s any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.(interface{ WriteSnapshot(io.Writer) error }).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDurableClassKillRestartDigitIdentical(t *testing.T) {
	const n, kill = 400, 137
	xs, ys := classPoints(n)
	dir := t.TempDir()

	// Interrupted run: insert the first kill points, then "crash".
	a := newDurableClass(t, dir, 3)
	for i := 0; i < kill; i++ {
		if err := a.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	// No Close, no Checkpoint: the process is gone.
	crash(t, a.dur)

	// Recover and finish the stream.
	a2 := newDurableClass(t, dir, 3)
	if got := a2.Stats().WALReplayed; got != kill {
		t.Fatalf("replayed %d records, want %d", got, kill)
	}
	for i := kill; i < n; i++ {
		if err := a2.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Uninterrupted reference run, no WAL at all.
	b, err := NewEmpty(3, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}

	if sa, sb := snapshotBytes(t, a2), snapshotBytes(t, b); !bytes.Equal(sa, sb) {
		t.Fatalf("recovered model bytes differ from uninterrupted run: %d vs %d bytes", len(sa), len(sb))
	}
	sta, stb := a2.Stats(), b.Stats()
	if sta.Observations != stb.Observations || sta.Nodes != stb.Nodes || sta.Weight != stb.Weight {
		t.Fatalf("stats diverge: recovered obs=%d nodes=%d weight=%v, uninterrupted obs=%d nodes=%d weight=%v",
			sta.Observations, sta.Nodes, sta.Weight, stb.Observations, stb.Nodes, stb.Weight)
	}
	// And the recovered server answers queries identically.
	for i := 0; i < 25; i++ {
		ra, err := a2.Classify(xs[i], 20)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Classify(xs[i], 20)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Label != rb.Label {
			t.Fatalf("point %d: recovered label %d != uninterrupted %d", i, ra.Label, rb.Label)
		}
	}
	a2.CloseDurability()
}

// newDurableCluster opens a durable clustering server and finishes
// recovery.
func newDurableCluster(t *testing.T, dir string, shards int) *ClusterServer {
	t.Helper()
	copts := ClusterOptions{}
	s, err := OpenDurableCluster(DurabilityOptions{Dir: dir}, Config{}, func() (*ClusterServer, error) {
		return NewCluster(clustree.DefaultConfig(2), shards, Config{}, copts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDurableClusterKillRestartDigitIdentical(t *testing.T) {
	const n, kill = 400, 137
	rng := rand.New(rand.NewSource(11))
	xs := make([][]float64, n)
	budgets := make([]int, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		budgets[i] = 1 + i%7 // budget 1 exercises the parked path
	}
	dir := t.TempDir()

	a := newDurableCluster(t, dir, 3)
	for i := 0; i < kill; i++ {
		if _, err := a.Insert(xs[i], budgets[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Crash.
	crash(t, a.dur)

	a2 := newDurableCluster(t, dir, 3)
	if a2.Clock() != kill {
		t.Fatalf("recovered clock %d, want %d", a2.Clock(), kill)
	}
	for i := kill; i < n; i++ {
		if _, err := a2.Insert(xs[i], budgets[i]); err != nil {
			t.Fatal(err)
		}
	}

	b, err := NewCluster(clustree.DefaultConfig(2), 3, Config{}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := b.Insert(xs[i], budgets[i]); err != nil {
			t.Fatal(err)
		}
	}

	if sa, sb := snapshotBytes(t, a2), snapshotBytes(t, b); !bytes.Equal(sa, sb) {
		t.Fatalf("recovered cluster state differs from uninterrupted run: %d vs %d bytes", len(sa), len(sb))
	}
	sta, stb := a2.Stats(), b.Stats()
	if sta.Clock != stb.Clock || sta.MicroClusters != stb.MicroClusters ||
		sta.Parked != stb.Parked || sta.Weight != stb.Weight {
		t.Fatalf("cluster stats diverge: %+v vs %+v", sta, stb)
	}
	if sta.WALReplayed != kill {
		t.Fatalf("replayed %d records, want %d", sta.WALReplayed, kill)
	}
	a2.CloseDurability()
}

// TestDurableDrainCheckpointTruncates: a drain-style Checkpoint folds
// the WAL into the snapshot, so the next start replays nothing.
func TestDurableDrainCheckpointTruncates(t *testing.T) {
	xs, ys := classPoints(100)
	dir := t.TempDir()
	a := newDurableClass(t, dir, 2)
	for i := range xs {
		if err := a.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	gen := a.Generation()
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if a.Generation() != gen+1 {
		t.Fatalf("generation %d after checkpoint, want %d", a.Generation(), gen+1)
	}
	if err := a.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	a2 := newDurableClass(t, dir, 2)
	st := a2.Stats()
	if st.WALReplayed != 0 {
		t.Fatalf("clean restart replayed %d records, want 0", st.WALReplayed)
	}
	if st.Observations != 100 {
		t.Fatalf("clean restart lost data: %d observations, want 100", st.Observations)
	}
	a2.CloseDurability()
}

// TestDurableRecoveringGate: until Recover completes the server fails
// readiness checks (liveness stays 200), rejects writes over HTTP with
// 503 and programmatic writes with an error — and serves normally
// afterwards.
func TestDurableRecoveringGate(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurableServer(DurabilityOptions{Dir: dir}, Config{}, func() (*Server, error) {
		return NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Recovering() {
		t.Fatal("durable server not recovering before Recover")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during recovery = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("/readyz 503 during recovery has no Retry-After")
	}
	// Liveness stays green the whole time: a recovering process is
	// healthy, just not ready.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during recovery = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/insert", "application/json", strings.NewReader(`{"x":[1,2,3],"label":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/insert during recovery = %d, want 503", resp.StatusCode)
	}
	if err := s.Insert([]float64{1, 2, 3}, 1); err == nil {
		t.Fatal("programmatic insert during recovery succeeded")
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats during recovery = %d, want 200", resp.StatusCode)
	}

	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err != nil {
		t.Fatalf("second Recover not idempotent: %v", err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d, want 200", resp.StatusCode)
	}
	if err := s.Insert([]float64{1, 2, 3}, 1); err != nil {
		t.Fatal(err)
	}
	s.CloseDurability()
}

// TestDurableTornTailDropped: a crash mid-append leaves a torn final
// record; recovery drops exactly it and reports the drop in stats.
func TestDurableTornTailDropped(t *testing.T) {
	xs, ys := classPoints(60)
	dir := t.TempDir()
	a := newDurableClass(t, dir, 1)
	for i := range xs {
		if err := a.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Crash, then tear the last few bytes off the shard's active segment.
	crash(t, a.dur)
	tearLastSegment(t, filepath.Join(dir, "shard-000"), 5)

	a2 := newDurableClass(t, dir, 1)
	st := a2.Stats()
	if st.WALDroppedRecords != 1 {
		t.Fatalf("dropped %d records, want 1", st.WALDroppedRecords)
	}
	if st.Observations != 59 {
		t.Fatalf("observations %d after torn-tail recovery, want 59", st.Observations)
	}
	a2.CloseDurability()
}

// tearLastSegment truncates n bytes off the largest-index non-empty
// segment in a shard WAL directory.
func tearLastSegment(t *testing.T, shardDir string, n int64) {
	t.Helper()
	ents, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	var target string
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 0 && (target == "" || e.Name() > filepath.Base(target)) {
			target = filepath.Join(shardDir, e.Name())
		}
	}
	if target == "" {
		t.Fatal("no non-empty segment to tear")
	}
	fi, err := os.Stat(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(target, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCorruptSegmentFatal: mid-log corruption must fail recovery
// loudly rather than silently serving a partial model.
func TestDurableCorruptSegmentFatal(t *testing.T) {
	xs, ys := classPoints(60)
	dir := t.TempDir()
	a := newDurableClass(t, dir, 1)
	for i := range xs {
		if err := a.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	crash(t, a.dur)
	// Flip a byte in the middle of the segment: bit rot, not a torn tail.
	shardDir := filepath.Join(dir, "shard-000")
	ents, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(shardDir, e.Name())
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) == 0 {
			continue
		}
		buf[len(buf)/2] ^= 0xFF
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		break
	}
	s, err := OpenDurableServer(DurabilityOptions{Dir: dir}, Config{}, func() (*Server, error) {
		return NewEmpty(1, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Recover over corrupt segment = %v, want ErrCorrupt", err)
	}
}

// TestDurableLegacySnapshotBootstrap: in the library, a bare snapshot
// file loads memory-only through FromSnapshot and migrates into a fresh
// durability directory as OpenDurableServer's bootstrap. No serving
// command reads such a file; this is the library-level migration path.
func TestDurableLegacySnapshotBootstrap(t *testing.T) {
	xs, ys := classPoints(80)
	legacy, err := NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if err := legacy.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	snapPath := filepath.Join(t.TempDir(), "legacy.btsn")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := legacy.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// WAL-less startup from the legacy file is unchanged.
	f, err = os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := FromSnapshot(f, Config{})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != 80 {
		t.Fatalf("legacy WAL-less load: %d observations, want 80", plain.Len())
	}
	if st := plain.Stats(); st.WALEnabled || st.Recovering {
		t.Fatalf("WAL-less server reports durability state: %+v", st)
	}

	// Migration: the legacy file seeds a fresh durability directory.
	dir := t.TempDir()
	s, err := OpenDurableServer(DurabilityOptions{Dir: dir}, Config{}, func() (*Server, error) {
		f, err := os.Open(snapPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return FromSnapshot(f, Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 80 {
		t.Fatalf("migrated server: %d observations, want 80", s.Len())
	}
	if err := s.Insert([]float64{0.5, -0.5, 0}, 1); err != nil {
		t.Fatal(err)
	}
	s.CloseDurability()

	// A crash right after migration recovers snapshot + the one insert.
	s2 := newDurableClass(t, dir, 2)
	if s2.Len() != 81 {
		t.Fatalf("recovered migrated server: %d observations, want 81", s2.Len())
	}
	s2.CloseDurability()
}

// TestDurableStreamEngineTransparent: ingest driven through the
// stream.Engine batch path is logged like any other insert — the WAL
// is transparent to the streaming layer.
func TestDurableStreamEngineTransparent(t *testing.T) {
	xs, ys := classPoints(240)
	dir := t.TempDir()
	s := newDurableClass(t, dir, 2)
	// Seed so the classification half of the stream run has mass.
	for i := 0; i < 40; i++ {
		if err := s.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	items := make([]stream.Item, 0, 200)
	for i := 40; i < 240; i++ {
		items = append(items, stream.Item{X: xs[i], Label: ys[i], Labeled: true})
	}
	_, err := stream.RunBatch(s, items, stream.Constant{Interval: 0.01},
		stream.Budgeter{NodesPerSecond: 1000, MaxNodes: 16}, 1, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 240 {
		t.Fatalf("engine holds %d observations, want 240", s.Len())
	}
	// Crash + recover: every stream-learned observation survives.
	crash(t, s.dur)
	s2 := newDurableClass(t, dir, 2)
	if s2.Len() != 240 {
		t.Fatalf("recovered %d observations, want 240", s2.Len())
	}
	if st := s2.Stats(); st.WALReplayed != 240 {
		t.Fatalf("replayed %d, want 240", st.WALReplayed)
	}
	s2.CloseDurability()
}

// TestDurableWALStats: the serving stats surface the durability
// counters.
func TestDurableWALStats(t *testing.T) {
	xs, ys := classPoints(30)
	dir := t.TempDir()
	s := newDurableClass(t, dir, 2)
	for i := range xs {
		if err := s.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if !st.WALEnabled || st.Recovering {
		t.Fatalf("unexpected durability state: %+v", st)
	}
	if st.WALAppends != 30 || st.WALBytes == 0 || st.WALSyncs == 0 {
		t.Fatalf("WAL counters: appends=%d bytes=%d syncs=%d", st.WALAppends, st.WALBytes, st.WALSyncs)
	}
	if st.SnapshotGeneration == 0 {
		t.Fatal("no checkpoint generation after recovery")
	}
	s.CloseDurability()
	// Closed WAL: inserts must fail rather than silently go unlogged.
	if err := s.Insert(xs[0], ys[0]); err == nil {
		t.Fatal("insert after CloseDurability succeeded")
	}
}

// TestDurableUnknownLabelRejectedBeforeLogging: pre-validation keeps
// impossible records out of the log, so replay can never fail on apply.
func TestDurableUnknownLabelRejectedBeforeLogging(t *testing.T) {
	dir := t.TempDir()
	s := newDurableClass(t, dir, 1)
	if err := s.Insert([]float64{1, 2, 3}, 99); err == nil {
		t.Fatal("unknown label accepted")
	}
	if err := s.Insert([]float64{1, math.NaN(), 3}, 1); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
	if st := s.Stats(); st.WALAppends != 0 {
		t.Fatalf("rejected inserts reached the WAL: %d appends", st.WALAppends)
	}
	s.CloseDurability()
	// The next recovery replays an empty log cleanly.
	s2 := newDurableClass(t, dir, 1)
	if s2.Len() != 0 {
		t.Fatalf("recovered %d observations, want 0", s2.Len())
	}
	s2.CloseDurability()
}

// TestDurableRecordRejectedBeforeLogging: a well-framed classification
// record carrying what JSON cannot — a label outside the class set, a
// NaN or ±Inf coordinate — is refused when decoded for replay or
// replication, before it is logged: the log and the model are
// unchanged, and the next recovery replays cleanly. Logged, it would
// fail its apply on every recovery from then on.
func TestDurableRecordRejectedBeforeLogging(t *testing.T) {
	dir := t.TempDir()
	s := newDurableClass(t, dir, 2)
	rng := rand.New(rand.NewSource(5))
	const n = 40
	for i := 0; i < n; i++ {
		if err := s.Insert([]float64{rng.Float64(), rng.Float64(), rng.Float64()}, i%3); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range [][]byte{
		encodeRecord([]float64{1, 2, 3}, 99),
		encodeRecord([]float64{1, math.NaN(), 3}, 1),
		encodeRecord([]float64{math.Inf(-1), 2, 3}, 1),
	} {
		if _, _, err := s.wl.record(rec); err == nil {
			t.Fatalf("record %x decoded to an apply", rec)
		}
		if err := s.ApplyReplicated(0, rec); err == nil {
			t.Fatalf("replicated record %x was applied", rec)
		}
		if appends := s.Stats().WALAppends; appends != n || s.Len() != n {
			t.Fatalf("a rejected record changed the server: %d appends, %d observations; want %d", appends, s.Len(), n)
		}
	}
	s.CloseDurability()
	s2 := newDurableClass(t, dir, 2)
	if s2.Len() != n || s2.Stats().WALReplayed != n {
		t.Fatalf("recovered %d observations from %d replayed records, want %d", s2.Len(), s2.Stats().WALReplayed, n)
	}
	s2.CloseDurability()
}

// TestClusterNonFiniteRejectedBeforeLogging: a NaN or ±Inf coordinate —
// which JSON cannot carry but an in-process caller or a framed record
// can — is refused before the clock ticks and before the log is
// appended to, through every way in: Insert and a well-framed record
// offered for replay or replication. Merged into a
// micro-cluster it would turn every mean above it into NaN for good.
func TestClusterNonFiniteRejectedBeforeLogging(t *testing.T) {
	dir := t.TempDir()
	s := newDurableCluster(t, dir, 2)
	rng := rand.New(rand.NewSource(3))
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := s.Insert([]float64{rng.Float64(), rng.Float64()}, 1+i%5); err != nil {
			t.Fatal(err)
		}
	}
	type state struct {
		weight      float64
		inserts     int
		clock       int64
		walAppends  int64
		engineCount int64
	}
	observe := func() state {
		st := state{clock: s.Clock(), walAppends: s.Stats().WALAppends, engineCount: s.inserts.Load()}
		for _, sh := range s.shards {
			if err := sh.tree.t.Validate(); err != nil {
				t.Fatal(err)
			}
			st.weight += sh.tree.t.Weight()
			st.inserts += sh.tree.t.Inserts()
		}
		return st
	}
	before := observe()
	if before.inserts != n || before.clock != n || before.walAppends != n {
		t.Fatalf("before: %+v", before)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := []float64{0.5, bad}
		if _, err := s.Insert(x, 4); err == nil {
			t.Fatalf("Insert accepted %v", x)
		}
		payload := encodeRecord(x, s.Clock()+1, 4)
		if _, _, err := s.wl.record(payload); err == nil {
			t.Fatalf("a framed record of %v decoded to an apply", x)
		}
		if err := s.ApplyReplicated(0, payload); err == nil {
			t.Fatalf("a replicated record of %v was applied", x)
		}
		if after := observe(); after != before {
			t.Fatalf("rejected %v changed the server: %+v, was %+v", x, after, before)
		}
	}
	s.CloseDurability()
	// Nothing non-finite was logged: recovery replays the hundred.
	s2 := newDurableCluster(t, dir, 2)
	if s2.Clock() != n || s2.Stats().WALReplayed != n {
		t.Fatalf("recovered clock %d after %d replayed records, want %d", s2.Clock(), s2.Stats().WALReplayed, n)
	}
	s2.CloseDurability()
}

// TestClusterStaleRecordRefusedBeforeLogging: a shipped clustering
// record whose timestamp precedes its shard's time decodes cleanly, and
// only the shard's clock can refuse it. ApplyReplicated refuses it under
// the shard lock before the log sees it, so the follower's log holds
// only records that apply and the next recovery replays cleanly.
func TestClusterStaleRecordRefusedBeforeLogging(t *testing.T) {
	dir := t.TempDir()
	s := newDurableCluster(t, dir, 2)
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := s.Insert([]float64{float64(i%7) / 7, float64(i%5) / 5}, 3); err != nil {
			t.Fatal(err)
		}
	}
	now := s.shards[0].tree.t.Now()
	if now < 2 {
		t.Fatalf("shard 0 time %v: no earlier timestamp to replay", now)
	}
	appends := s.Stats().WALAppends
	stale := encodeRecord([]float64{0.5, 0.5}, 1, 3)
	if _, _, err := s.wl.record(stale); err != nil {
		t.Fatalf("the stale record should decode: %v", err)
	}
	if err := s.ApplyReplicated(0, stale); err == nil {
		t.Fatal("a record older than its shard's time was applied")
	}
	if got := s.Stats().WALAppends; got != appends {
		t.Fatalf("the refused record reached the WAL: %d appends, was %d", got, appends)
	}
	s.CloseDurability()
	s2 := newDurableCluster(t, dir, 2)
	if s2.Clock() != n || s2.Stats().WALReplayed != n {
		t.Fatalf("recovered clock %d after %d replayed records, want %d", s2.Clock(), s2.Stats().WALReplayed, n)
	}
	s2.CloseDurability()
}
