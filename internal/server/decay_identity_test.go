package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/persist"
	"bayestree/internal/replica"
)

// With decay on, a shard's epochs and sweeps fall on its write count,
// which the manifest and the replication header carry, so a recovered
// server and a follower cross every boundary at the write their primary
// did. These tests hold both workloads to that bit for bit: at the same
// applied LSN, the same snapshot bytes and the same answer bits, after
// more than ten boundaries on every shard and a checkpoint cut between
// them.

// decayEvery is the identity tests' epoch length in writes to a shard.
const decayEvery = 64

// decayWorkload is one workload under the identity tests: how to open a
// durable server of it, follow one, write the i-th object of its stream
// and read the bits its answers carry.
type decayWorkload[S Served] struct {
	open   func(t *testing.T, dir string) S
	follow func(dir, url string) (*Follower[S], error)
	name   string
	write  func(s S, i int) error
	bits   func(t *testing.T, s S) string
}

// floatBits renders floats as their bit patterns.
func floatBits(b *bytes.Buffer, v ...float64) {
	for _, f := range v {
		fmt.Fprintf(b, "%x ", math.Float64bits(f))
	}
}

func classDecayWorkload(n int) decayWorkload[*Server] {
	cfg := Config{Decay: core.DecayOptions{Lambda: 0.5, MinWeight: 0.05}, DecayEvery: decayEvery}
	xs, ys := classPoints(n)
	return decayWorkload[*Server]{
		name: replica.WorkloadClassify,
		open: func(t *testing.T, dir string) *Server {
			t.Helper()
			s, err := OpenDurableServer(DurabilityOptions{Dir: dir}, cfg, func() (*Server, error) {
				return NewEmpty(3, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, cfg)
			})
			if err == nil {
				err = s.Recover()
			}
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		follow: func(dir, url string) (*Follower[*Server], error) {
			return NewFollowerServer(DurabilityOptions{Dir: dir}, cfg, url)
		},
		write: func(s *Server, i int) error { return s.Insert(xs[i], ys[i]) },
		bits: func(t *testing.T, s *Server) string {
			var b bytes.Buffer
			for i := 0; i < 20; i++ {
				res, err := s.Classify(xs[i], 32)
				if err != nil {
					t.Fatal(err)
				}
				floatBits(&b, res.Scores...)
				floatBits(&b, res.Weight)
			}
			return b.String()
		},
	}
}

func clusterDecayWorkload(n int) decayWorkload[*ClusterServer] {
	cfg := Config{Decay: core.DecayOptions{Lambda: 0.002, MinWeight: 0.5}, DecayEvery: decayEvery}
	xs, budgets := killRestartStream(n)
	return decayWorkload[*ClusterServer]{
		name: replica.WorkloadCluster,
		open: func(t *testing.T, dir string) *ClusterServer {
			t.Helper()
			s, err := OpenDurableCluster(DurabilityOptions{Dir: dir}, cfg, func() (*ClusterServer, error) {
				return NewCluster(clustree.DefaultConfig(2), 3, cfg, ClusterOptions{})
			})
			if err == nil {
				err = s.Recover()
			}
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		follow: func(dir, url string) (*Follower[*ClusterServer], error) {
			return NewFollowerCluster(DurabilityOptions{Dir: dir}, cfg, url)
		},
		write: func(s *ClusterServer, i int) error {
			_, err := s.Insert(xs[i], budgets[i])
			return err
		},
		bits: func(t *testing.T, s *ClusterServer) string {
			var b bytes.Buffer
			for _, mc := range s.MicroClusters(0) {
				floatBits(&b, mc.CF.N, mc.Weight, mc.Radius)
				floatBits(&b, mc.CF.LS...)
				floatBits(&b, mc.CF.SS...)
				floatBits(&b, mc.Mean...)
				b.WriteByte('|')
			}
			return b.String()
		},
	}
}

// decayState is a server's per-shard write counts and epochs (nil for a
// ClusTree, which fades on its own clock and has none), and its
// durability state.
func decayState(s any) (writes []uint64, epochs []int64, dur *durState) {
	switch v := s.(type) {
	case *Server:
		for _, sh := range v.shards {
			writes, epochs = append(writes, sh.writes), append(epochs, sh.tree.Epoch())
		}
		return writes, epochs, v.dur
	case *ClusterServer:
		for _, sh := range v.shards {
			writes = append(writes, sh.writes)
		}
		return writes, nil, v.dur
	}
	panic(fmt.Sprintf("decayState: %T", s))
}

// sameDecayState fails t unless got holds want's snapshot bytes, answer
// bits, write counts and /stats decay_epoch.
func sameDecayState[S Served](t *testing.T, w decayWorkload[S], what string, got, want S) {
	t.Helper()
	if g, x := snapshotBytes(t, got), snapshotBytes(t, want); !bytes.Equal(g, x) {
		t.Fatalf("%s: snapshot bytes differ from the primary's: %d vs %d bytes", what, len(g), len(x))
	}
	if w.bits(t, got) != w.bits(t, want) {
		t.Fatalf("%s: answer bits differ from the primary's", what)
	}
	gw, _, _ := decayState(got)
	ww, _, _ := decayState(want)
	if fmt.Sprint(gw) != fmt.Sprint(ww) {
		t.Fatalf("%s: shard writes %v, the primary's %v", what, gw, ww)
	}
	if g, x := statsOf(t, got).DecayEpoch, statsOf(t, want).DecayEpoch; g != x {
		t.Fatalf("%s: /stats decay_epoch %d, the primary's %d", what, g, x)
	}
}

// statsOf is what s's /stats answers.
func statsOf[S Served](t *testing.T, s S) Stats {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != 200 {
		t.Fatalf("/stats answered %d %q: %v", rec.Code, rec.Body.String(), err)
	}
	return st
}

// checkBoundaries fails t unless every shard of s crossed at least ten
// decay boundaries — a classification shard one epoch per decayEvery of
// its writes — and the boundaries pruned.
func checkBoundaries[S Served](t *testing.T, s S) {
	t.Helper()
	writes, epochs, _ := decayState(s)
	for i := range writes {
		if writes[i] < 10*decayEvery || (epochs != nil && epochs[i] != int64(writes[i]/decayEvery)) {
			t.Fatalf("shard %d: epochs %v after %d writes, want ≥ 10 boundaries and one epoch per %d", i, epochs, writes[i], decayEvery)
		}
	}
	if statsOf(t, s).PointsPruned == 0 {
		t.Fatal("the decay boundaries pruned nothing")
	}
}

// TestDurableDecayRecoveryIdentical: a decaying primary checkpoints
// mid-stream, so its write counts come back from the manifest, then
// crashes; the server recovered from its directory replays the tail,
// sweeping at the writes the primary swept at, and holds the primary's
// bytes and answer bits.
func TestDurableDecayRecoveryIdentical(t *testing.T) {
	const n, ckpt = 2400, 1111
	t.Run("classify", func(t *testing.T) { decayRecovery(t, classDecayWorkload(n), n, ckpt) })
	t.Run("cluster", func(t *testing.T) { decayRecovery(t, clusterDecayWorkload(n), n, ckpt) })
}

func decayRecovery[S Served](t *testing.T, w decayWorkload[S], n, ckpt int) {
	dir := t.TempDir()
	p := w.open(t, dir)
	for i := 0; i < n; i++ {
		if err := w.write(p, i); err != nil {
			t.Fatal(err)
		}
		if i+1 == ckpt {
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkBoundaries(t, p)
	_, _, dur := decayState(p)
	crash(t, dur)

	r := w.open(t, dir)
	defer r.CloseDurability()
	if _, _, rd := decayState(r); rd.replayed.Load() != int64(n-ckpt) {
		t.Fatalf("replayed %d records, want the %d past the checkpoint", rd.replayed.Load(), n-ckpt)
	}
	sameDecayState(t, w, "recovered", r, p)
}

// TestFollowerDecayIdentical: a follower that bootstraps from a
// decaying primary mid-stream takes the shard write counts from the
// replication header and then applies the tail, sweeping where the
// primary swept; at every waypoint where it has applied everything
// shipped, and across a checkpoint of the primary's, it holds the
// primary's bytes and answer bits.
func TestFollowerDecayIdentical(t *testing.T) {
	const n, ckpt = 2400, 1500
	t.Run("classify", func(t *testing.T) { decayFollower(t, classDecayWorkload(n), n, ckpt) })
	t.Run("cluster", func(t *testing.T) { decayFollower(t, clusterDecayWorkload(n), n, ckpt) })
}

func decayFollower[S Served](t *testing.T, w decayWorkload[S], n, ckpt int) {
	const start, every = 700, 400
	p := w.open(t, t.TempDir())
	defer p.CloseDurability()
	ts := httptest.NewServer(p.Handler())
	defer killServer(ts)
	for i := 0; i < start; i++ {
		if err := w.write(p, i); err != nil {
			t.Fatal(err)
		}
	}
	f, err := w.follow(t.TempDir(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stopTail()
	for i := start; i < n; i++ {
		if err := w.write(p, i); err != nil {
			t.Fatal(err)
		}
		if i+1 == ckpt {
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if lsn := uint64(i + 1); lsn%every == 0 || lsn == uint64(n) {
			waitFor(t, 20*time.Second, "the follower to apply the stream so far", func() bool { return appliedLSN(f) == lsn })
			sameDecayState(t, w, fmt.Sprintf("follower at LSN %d", lsn), f.Current(), p)
		}
	}
	checkBoundaries(t, p)
	if err := f.Persist(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableManifestWithoutShardWrites: a MANIFEST written before the
// write counts existed carries none; the directory opens, its shards
// count from 0, and the records past the checkpoint count on from there.
func TestDurableManifestWithoutShardWrites(t *testing.T) {
	const n, tail = 300, 40
	w := classDecayWorkload(n + tail)
	dir := t.TempDir()
	s := w.open(t, dir)
	for i := 0; i < n; i++ {
		if err := w.write(s, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+tail; i++ {
		if err := w.write(s, i); err != nil {
			t.Fatal(err)
		}
	}
	crash(t, s.dur)
	m, _, err := persist.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ShardWrites) != 3 {
		t.Fatalf("the checkpoint wrote shard writes %v, want one count a shard", m.ShardWrites)
	}
	m.ShardWrites = nil
	if err := persist.SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	r := w.open(t, dir)
	defer r.CloseDurability()
	writes, _, _ := decayState(r)
	var sum uint64
	for _, c := range writes {
		sum += c
	}
	if sum != tail {
		t.Fatalf("shard writes %v after a manifest without counts and a %d-record tail, want %d in all", writes, tail, tail)
	}
}
