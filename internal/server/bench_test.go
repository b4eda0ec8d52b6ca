package server

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
)

// benchServer builds a pre-filled server outside the timed region.
func benchServer(b *testing.B, shards int, cfg Config) *Server {
	b.Helper()
	s, err := NewEmpty(shards, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, cfg)
	if err != nil {
		b.Fatalf("new server: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x, label := genPoint(rng)
		if err := s.Insert(x, label); err != nil {
			b.Fatalf("insert: %v", err)
		}
	}
	return s
}

// BenchmarkServerClassify measures served classifications per second as
// a function of shard count and per-request budget (admission disabled,
// so the numbers isolate the fan-out and locking overhead). Run with
// -benchtime and -cpu to sweep; EXPERIMENTS.md records the results.
func BenchmarkServerClassify(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, budget := range []int{10, 50, 200} {
			b.Run(fmt.Sprintf("shards=%d/budget=%d", shards, budget), func(b *testing.B) {
				s := benchServer(b, shards, Config{})
				var seed atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(seed.Add(1)))
					for pb.Next() {
						x, _ := genPoint(rng)
						if _, err := s.Classify(x, budget); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// BenchmarkServerClassifyPendigits is the repo benchmark's classify rows
// in process: Pendigits shuffled with seed 1, its first 8,000 points
// routed over 4 shards, then one classification per op of the 2,992
// held-out points in turn, at classify_shallow's budget 4 and
// classify_deep's 128. The model's descent is the whole op: no HTTP,
// no JSON.
func BenchmarkServerClassifyPendigits(b *testing.B) {
	d, err := dataset.Pendigits(1)
	if err != nil {
		b.Fatal(err)
	}
	d.Shuffle(1)
	const train, shards = 8000, 4
	trees := make([]*core.MultiTree, shards)
	for i := range trees {
		if trees[i], err = core.NewMultiTree(core.DefaultConfig(d.Dim()), d.Classes(), core.MultiOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < train; i++ {
		if err := trees[RouteShard(d.X[i], shards)].Insert(d.X[i], d.Y[i]); err != nil {
			b.Fatal(err)
		}
	}
	s, err := New(trees, Config{})
	if err != nil {
		b.Fatal(err)
	}
	held := d.X[train:]
	for _, budget := range []int{4, 128} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Classify(held[i%len(held)], budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerBuildPendigits is the classify rows' set-up in process:
// one op inserts the first 8,000 Pendigits points shuffled with seed 1
// into an empty 4-shard DefaultConfig(16) server — the model
// BenchmarkServerClassifyPendigits reads — and serves its first read,
// which builds each shard's mirror. No HTTP, no JSON; run it with
// -benchmem, the build's bytes are most of what a split costs.
func BenchmarkServerBuildPendigits(b *testing.B) {
	d, err := dataset.Pendigits(1)
	if err != nil {
		b.Fatal(err)
	}
	d.Shuffle(1)
	const train, shards = 8000, 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewEmpty(shards, core.DefaultConfig(d.Dim()), d.Classes(), core.MultiOptions{}, Config{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < train; j++ {
			if err := s.Insert(d.X[j], d.Y[j]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Classify(d.X[train], 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerClassifyBatch measures the in-process batch path: a
// pool of 4 workers running each item's solo classification (admit,
// split over 4 shards, one anytime query per shard, one merge).
func BenchmarkServerClassifyBatch(b *testing.B) {
	for _, batch := range []int{16, 128} {
		b.Run(fmt.Sprintf("batch=%d/budget=50", batch), func(b *testing.B) {
			s := benchServer(b, 4, Config{})
			rng := rand.New(rand.NewSource(7))
			xs := make([][]float64, batch)
			budgets := make([]int, batch)
			for i := range xs {
				xs[i], _ = genPoint(rng)
				budgets[i] = 50
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ClassifyBatchBudgets(xs, budgets, 4); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
		})
	}
}

// BenchmarkServerMixed measures classification throughput with a
// concurrent 5% insert write load — the serving-while-learning regime
// the per-shard RW locks exist for.
func BenchmarkServerMixed(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := benchServer(b, shards, Config{})
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				i := 0
				for pb.Next() {
					x, label := genPoint(rng)
					if i%20 == 19 {
						if err := s.Insert(x, label); err != nil {
							b.Error(err)
							return
						}
					} else if _, err := s.Classify(x, 50); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkServerInsert measures one served insert — route, log append
// when durable, tree insert and its mirror repair under the shard write
// lock — on 4 shards over a 2,000-point Pendigits model (16 dimensions, 10
// classes, one insert in twelve splits a node), memory-only and behind
// a group-commit WAL. allocs/op is the number to watch: the split and
// the mirror repair are meant to stay a small constant. The decay row
// forgets with DecayEvery 1000: the insert that brings its shard's
// write count to a multiple of 1,000 advances the shard's epoch and
// sweeps the whole shard, so it reports the median insert and the
// longest, which is a sweep's (with 4,000 ops, each shard crosses one
// boundary), and the sweeps run.
func BenchmarkServerInsert(b *testing.B) {
	d, err := dataset.Pendigits(1)
	if err != nil {
		b.Fatal(err)
	}
	d.Shuffle(1)
	const preload = 2000
	empty := func(cfg Config) func() (*Server, error) {
		return func() (*Server, error) {
			return NewEmpty(4, core.DefaultConfig(d.Dim()), d.Classes(), core.MultiOptions{}, cfg)
		}
	}
	for _, row := range []struct {
		name    string
		durable bool
		cfg     Config
	}{
		{"memory", false, Config{}},
		{"durable", true, Config{}},
		{"decay", false, Config{Decay: core.DecayOptions{Lambda: 0.1, MinWeight: 0.05}, DecayEvery: 1000}},
	} {
		b.Run(row.name, func(b *testing.B) {
			var s *Server
			var err error
			if row.durable {
				s, err = OpenDurableServer(DurabilityOptions{Dir: b.TempDir(), FsyncEvery: 100 * time.Millisecond}, row.cfg, empty(row.cfg))
				if err == nil {
					defer s.CloseDurability()
					err = s.Recover()
				}
			} else {
				s, err = empty(row.cfg)()
			}
			if err != nil {
				b.Fatal(err)
			}
			insert := func(i int) {
				if err := s.Insert(d.X[i%d.Len()], d.Y[i%d.Len()]); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < preload; i++ {
				insert(i)
			}
			// One read, so every shard has a mirror for the inserts to
			// repair, as a server that answers queries does.
			if _, err := s.Classify(d.X[0], 32); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			if row.cfg.DecayEvery == 0 {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					insert(preload + i)
				}
				return
			}
			took := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range took {
				t0 := time.Now()
				insert(preload + i)
				took[i] = time.Since(t0)
			}
			b.StopTimer()
			slices.Sort(took)
			var sweeps int64
			for _, sh := range s.shards {
				sweeps += sh.tree.Epoch()
			}
			b.ReportMetric(float64(took[len(took)/2].Nanoseconds())/1e3, "insert_p50_us")
			b.ReportMetric(float64(took[len(took)-1].Nanoseconds())/1e3, "insert_max_us")
			b.ReportMetric(float64(sweeps), "sweeps")
		})
	}
}

// BenchmarkServerRecover is the repo benchmark's mixed_durable restart
// in process: a durable 4-shard Pendigits server logs 7,100 inserts —
// checkpointing in the background whenever its log passes the limit —
// and is closed without a checkpoint of its own (parkPendigits). Each
// op restores a copy of that parked directory (untimed), then opens it
// and recovers: the snapshot decode, the replay of the tail, mirror
// builds and, only for a tail past the limit, a checkpoint.
// replayed_records, wal_replay_ms and checkpoint_ms are what /stats
// reports of those, averaged over the ops; every op asserts the bound:
// the tail replayed was under the limit, so recovery did not checkpoint.
func BenchmarkServerRecover(b *testing.B) {
	src := filepath.Join(b.TempDir(), "parked")
	parkPendigits(b, src, 7100)
	parked := map[string][]byte{}
	err := filepath.WalkDir(src, func(path string, ent fs.DirEntry, err error) error {
		if err != nil || ent.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path) // path lies under the walk's root
		parked[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	var replayed, replayMs, checkpointMs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		for rel, buf := range parked {
			if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(rel)), 0o755); err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, rel), buf, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		r := openParked(b, dir)
		b.StopTimer()
		st := r.Stats()
		if st.CheckpointMs != 0 || st.WALBytesSinceCheckpoint >= r.dur.limit() || st.WALDroppedRecords != 0 {
			b.Fatalf("replayed %d records (%d bytes, limit %d), dropped %d, checkpointed in %.1f ms",
				st.WALReplayed, st.WALBytesSinceCheckpoint, r.dur.limit(), st.WALDroppedRecords, st.CheckpointMs)
		}
		replayed += float64(st.WALReplayed)
		replayMs += st.WALReplayMs
		checkpointMs += st.CheckpointMs
		if err := r.CloseDurability(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(replayed/float64(b.N), "replayed_records")
	b.ReportMetric(replayMs/float64(b.N), "wal_replay_ms")
	b.ReportMetric(checkpointMs/float64(b.N), "checkpoint_ms")
}

// BenchmarkServerCheckpointStall measures what a checkpoint costs the
// requests it overlaps, on the mixed_durable shape: a durable 4-shard
// Pendigits server with 2,000 logged inserts, and one client that
// inserts and classifies at budget 32 in strict alternation without
// pause while each op runs one Checkpoint. insert_max_us and
// classify_max_us are the longest single insert and classify seen over
// all ops — the wait of a request that arrives as a checkpoint takes
// every shard lock — and lock_max_ms the longest such hold itself.
func BenchmarkServerCheckpointStall(b *testing.B) {
	d, err := dataset.Pendigits(1)
	if err != nil {
		b.Fatal(err)
	}
	d.Shuffle(1)
	const preload = 2000
	s, err := OpenDurableServer(DurabilityOptions{Dir: b.TempDir(), FsyncEvery: 100 * time.Millisecond}, Config{}, func() (*Server, error) {
		return NewEmpty(4, core.DefaultConfig(d.Dim()), d.Classes(), core.MultiOptions{}, Config{})
	})
	if err == nil {
		err = s.Recover()
	}
	if err != nil {
		b.Fatal(err)
	}
	defer s.CloseDurability()
	for i := 0; i < preload; i++ {
		if err := s.Insert(d.X[i], d.Y[i]); err != nil {
			b.Fatal(err)
		}
	}
	var insertMax, classifyMax time.Duration
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for i := preload; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			x := d.X[i%d.Len()]
			t0 := time.Now()
			err := s.Insert(x, d.Y[i%d.Len()])
			t1 := time.Now()
			if err == nil {
				_, err = s.Classify(d.X[(i+1)%d.Len()], 32)
			}
			if err != nil {
				done <- err
				return
			}
			insertMax, classifyMax = max(insertMax, t1.Sub(t0)), max(classifyMax, time.Since(t1))
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(insertMax.Microseconds()), "insert_max_us")
	b.ReportMetric(float64(classifyMax.Microseconds()), "classify_max_us")
	b.ReportMetric(s.Stats().CheckpointLockMs, "lock_max_ms")
}

// BenchmarkServerAlternate is the in-process twin of the repo
// benchmark's mixed_durable workload: on 4 shards over a 2,000-point
// Pendigits model, one insert then one classify at budget 32 in strict
// alternation, so every read follows a write to the constants and the
// mirror it reads. One op is the pair; allocs/op is the number to watch
// (the read adds ≈ 20 to the insert's): a jump means an insert started
// dropping the query constants or refilling whole mirror nodes again.
func BenchmarkServerAlternate(b *testing.B) {
	d, err := dataset.Pendigits(1)
	if err != nil {
		b.Fatal(err)
	}
	d.Shuffle(1)
	const preload = 2000
	s, err := NewEmpty(4, core.DefaultConfig(d.Dim()), d.Classes(), core.MultiOptions{}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	insert := func(i int) {
		if err := s.Insert(d.X[i%d.Len()], d.Y[i%d.Len()]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < preload; i++ {
		insert(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert(preload + i)
		if _, err := s.Classify(d.X[(preload+i+1)%d.Len()], 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerContended is the in-process twin of mixed_durable's
// contention: a durable group-commit 4-shard Pendigits server with
// 2,000 logged inserts, then one goroutine inserting held-out points
// and another classifying them at budget 32, side by side without
// pause. One op is one classify; insert_p50_us and classify_p50_us are
// each side's median latency, the numbers a classify that queues behind
// an insert, or an insert behind a classify, raises.
func BenchmarkServerContended(b *testing.B) {
	d, err := dataset.Pendigits(1)
	if err != nil {
		b.Fatal(err)
	}
	d.Shuffle(1)
	const preload = 2000
	s, err := OpenDurableServer(DurabilityOptions{Dir: b.TempDir(), FsyncEvery: 100 * time.Millisecond}, Config{}, func() (*Server, error) {
		return NewEmpty(4, core.DefaultConfig(d.Dim()), d.Classes(), core.MultiOptions{}, Config{})
	})
	if err == nil {
		err = s.Recover()
	}
	if err != nil {
		b.Fatal(err)
	}
	defer s.CloseDurability()
	for i := 0; i < preload; i++ {
		if err := s.Insert(d.X[i], d.Y[i]); err != nil {
			b.Fatal(err)
		}
	}
	held := d.Len() - preload
	var inserts []time.Duration
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			j := preload + i%held
			t0 := time.Now()
			if err := s.Insert(d.X[j], d.Y[j]); err != nil {
				done <- err
				return
			}
			inserts = append(inserts, time.Since(t0))
		}
	}()
	classifies := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := s.Classify(d.X[preload+i%held], 32); err != nil {
			close(stop)
			<-done
			b.Fatal(err)
		}
		classifies = append(classifies, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	median := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		slices.Sort(ds)
		return float64(ds[len(ds)/2].Nanoseconds()) / 1e3
	}
	b.ReportMetric(median(inserts), "insert_p50_us")
	b.ReportMetric(median(classifies), "classify_p50_us")
}
