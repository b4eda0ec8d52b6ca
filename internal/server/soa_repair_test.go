package server

import (
	"net/http/httptest"
	"testing"
	"time"

	"bayestree/internal/core"
)

// TestInsertsRepairTheMirror: on a warm server an insert, split or not,
// repairs the shard's descent mirror along its path and never builds it
// whole — through Server.Insert on a primary and through
// ApplyReplicated on the follower tailing it. Small leaves make one
// insert in four split a node.
func TestInsertsRepairTheMirror(t *testing.T) {
	const warm, more = 500, 2000
	treeCfg := core.DefaultConfig(3)
	treeCfg.MinFanout, treeCfg.MaxFanout, treeCfg.MinLeaf, treeCfg.MaxLeaf = 2, 4, 2, 6
	dopts := func() DurabilityOptions {
		return DurabilityOptions{Dir: t.TempDir(), FsyncEvery: 50 * time.Millisecond}
	}
	prim, err := OpenDurableServer(dopts(), Config{}, func() (*Server, error) {
		return NewEmpty(3, treeCfg, []int{0, 1, 2}, core.MultiOptions{}, Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.CloseDurability()
	if err := prim.Recover(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(prim.Handler())
	defer killServer(ts)
	foll, err := NewFollowerServer(dopts(), Config{}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer foll.stopTail()

	xs, ys := classPoints(warm + more)
	ingest := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := prim.Insert(xs[i], ys[i]); err != nil {
				t.Fatal(err)
			}
			if i%10 == 9 {
				if _, err := prim.Classify(xs[i], 20); err != nil {
					t.Fatal(err)
				}
			}
		}
		waitFor(t, 30*time.Second, "follower to apply every insert", func() bool {
			return appliedLSN(foll) == uint64(to)
		})
		for i := from; i < to; i += 10 {
			if _, err := foll.Current().Classify(xs[i], 20); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0, warm)
	primWarm, follWarm := prim.Stats(), foll.Current().Stats()
	ingest(warm, warm+more)
	for _, side := range []struct {
		name        string
		before, now Stats
	}{{"primary", primWarm, prim.Stats()}, {"follower", follWarm, foll.Current().Stats()}} {
		if side.now.Nodes <= side.before.Nodes {
			t.Fatalf("%s: %d nodes before and %d after %d inserts: nothing split", side.name, side.before.Nodes, side.now.Nodes, more)
		}
		if side.now.SoARebuilds != side.before.SoARebuilds || side.now.SoAPatches != side.before.SoAPatches+more {
			t.Errorf("%s: %d inserts made %d whole builds and %d repairs, want 0 and %d", side.name, more,
				side.now.SoARebuilds-side.before.SoARebuilds, side.now.SoAPatches-side.before.SoAPatches, more)
		}
	}
}
