package server

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"

	"bayestree/internal/core"
)

// Multi-follower fan-out: one primary ships its WAL to several
// concurrent followers at once. The properties: every follower
// converges digit-identical to an uninterrupted reference run, a
// follower that detaches mid-stream costs the others nothing, and a
// subscriber that stops draining is cut alone — backpressure from one
// slow link never stalls the primary or its healthy peers.

// TestReplicationFanOutThreeFollowers runs three concurrent followers
// against one primary and requires all of them to catch up
// digit-identical; dropping one mid-stream leaves the other two
// converging on the longer prefix.
func TestReplicationFanOutThreeFollowers(t *testing.T) {
	const n, half, nf = 240, 120, 3
	xs, ys := classPoints(n)
	prim := newDurableClass(t, t.TempDir(), 2)
	ts := httptest.NewServer(prim.Handler())
	defer killServer(ts)

	folls := make([]*Follower[*Server], nf)
	for i := range folls {
		f, err := NewFollowerServer(DurabilityOptions{Dir: t.TempDir()}, Config{}, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		folls[i] = f
	}

	for i := 0; i < half; i++ {
		if err := prim.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range folls {
		waitFor(t, 10*time.Second, "follower to apply the first half", func() bool {
			return appliedLSN(f) == uint64(half)
		})
	}
	if st := prim.Stats(); st.ReplFollowers != nf || st.ReplShippedLSN != uint64(half) {
		t.Fatalf("primary sees %d followers at shipped LSN %d, want %d at %d",
			st.ReplFollowers, st.ReplShippedLSN, nf, half)
	}

	// Digit-identity: every follower matches an uninterrupted run of the
	// same prefix — and therefore each other.
	ref, err := NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < half; i++ {
		if err := ref.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotBytes(t, ref)
	for i, f := range folls {
		if got := snapshotBytes(t, f.Current()); !bytes.Equal(got, want) {
			t.Fatalf("follower %d differs from the uninterrupted run at LSN %d (%d vs %d bytes)",
				i, half, len(got), len(want))
		}
	}

	// One follower leaves mid-stream; the rest of the stream flows to the
	// survivors undisturbed.
	folls[0].stopTail()
	for i := half; i < n; i++ {
		if err := prim.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
		if err := ref.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < nf; i++ {
		f := folls[i]
		waitFor(t, 10*time.Second, "surviving follower to apply the full stream", func() bool {
			return appliedLSN(f) == uint64(n)
		})
	}
	want = snapshotBytes(t, ref)
	for i := 1; i < nf; i++ {
		if got := snapshotBytes(t, folls[i].Current()); !bytes.Equal(got, want) {
			t.Fatalf("surviving follower %d diverged after peer detach", i)
		}
	}
	// The detached follower froze at the prefix it applied; it did not
	// tear the others down with it.
	if got := appliedLSN(folls[0]); got < uint64(half) || got > uint64(n) {
		t.Fatalf("detached follower applied LSN %d, want within [%d, %d]", got, half, n)
	}

	for _, f := range folls {
		if err := f.Persist(); err != nil {
			t.Fatal(err)
		}
	}
	prim.CloseDurability()
}

// TestReplHubOverflowCutsOnlySlowSubscriber pins the hub's backpressure
// policy at the unit level: a subscriber that stops draining is closed
// and removed the moment its buffer would overflow, while every healthy
// subscriber keeps receiving frames and the shipped LSN keeps
// advancing. (End-to-end, the cut follower reconnects and
// re-bootstraps — TestFollowerResumeAfterDisconnect.)
func TestReplHubOverflowCutsOnlySlowSubscriber(t *testing.T) {
	h := newReplHub()
	// The buffer capacity is the overflow threshold, so a tiny channel
	// stands in for a follower that is replSubBuffer frames behind.
	slow := &replSub{ch: make(chan replFrame, 2)}
	fastA := &replSub{ch: make(chan replFrame, 16)}
	fastB := &replSub{ch: make(chan replFrame, 16)}
	h.attach(slow)
	h.attach(fastA)
	h.attach(fastB)
	if got := h.followerCount(); got != 3 {
		t.Fatalf("follower count = %d, want 3", got)
	}

	// Nobody drains slow: the third publish finds its buffer full.
	for i := 0; i < 5; i++ {
		h.publish(i%2, []byte{byte(i)})
	}
	if !slow.dead {
		t.Fatal("slow subscriber not marked dead after overflow")
	}
	if _, ok := <-drainAll(slow.ch); ok {
		t.Fatal("slow subscriber's channel not closed after overflow")
	}
	if got := h.followerCount(); got != 2 {
		t.Fatalf("follower count = %d after overflow, want 2 (only the slow one cut)", got)
	}
	if got := h.shippedLSN(); got != 5 {
		t.Fatalf("shipped LSN = %d, want 5 — overflow must not stall shipping", got)
	}

	// The healthy subscribers saw every frame, in order.
	for name, sub := range map[string]*replSub{"A": fastA, "B": fastB} {
		if sub.dead {
			t.Fatalf("healthy subscriber %s was cut", name)
		}
		for i := 0; i < 5; i++ {
			select {
			case f := <-sub.ch:
				if len(f.payload) != 1 || f.payload[0] != byte(i) {
					t.Fatalf("subscriber %s frame %d carries payload %v", name, i, f.payload)
				}
			default:
				t.Fatalf("subscriber %s missing frame %d", name, i)
			}
		}
	}

	// detach after an overflow-cut is a no-op, not a double free.
	h.detach(slow)
	h.detach(fastA)
	if got := h.followerCount(); got != 1 {
		t.Fatalf("follower count = %d after detach, want 1", got)
	}
}

// drainAll empties ch of buffered frames and returns it so a receive
// can probe for closedness.
func drainAll(ch chan replFrame) chan replFrame {
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				// Closed and empty: re-reading keeps reporting closed.
				return ch
			}
		default:
			return ch
		}
	}
}

// TestReplicationFanOutEightFollowers is the fan-out stress property:
// eight concurrent followers tail one primary under the race detector
// and all converge digit-identical to an uninterrupted reference run —
// while a ninth subscriber that never drains (a wedged link, emulated
// by a raw hub subscriber with a tiny buffer) is overflow-cut alone,
// without stalling the primary or any of the eight. The cut and the
// per-subscriber buffer depths must be visible in /stats
// (repl_overflow_cuts, repl_sub_buffered).
func TestReplicationFanOutEightFollowers(t *testing.T) {
	const n, nf = 320, 8
	xs, ys := classPoints(n)
	prim := newDurableClass(t, t.TempDir(), 2)
	ts := httptest.NewServer(prim.Handler())
	defer killServer(ts)

	folls := make([]*Follower[*Server], nf)
	for i := range folls {
		f, err := NewFollowerServer(DurabilityOptions{Dir: t.TempDir()}, Config{}, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		folls[i] = f
	}
	for i := range folls {
		f := folls[i]
		waitFor(t, 10*time.Second, "follower to attach", func() bool {
			return f.Current() != nil
		})
	}

	// The wedged ninth subscriber: attached straight to the hub with a
	// buffer far below the stream length, drained by nobody.
	slow := &replSub{ch: make(chan replFrame, 4)}
	prim.dur.hub.attach(slow)

	for i := 0; i < n; i++ {
		if err := prim.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range folls {
		f := folls[i]
		waitFor(t, 15*time.Second, "all eight followers to apply the full stream", func() bool {
			return appliedLSN(f) == uint64(n)
		})
	}

	// The wedged subscriber was cut alone, visibly.
	if !slow.dead {
		t.Fatal("wedged subscriber not cut after overflow")
	}
	st := prim.Stats()
	if st.ReplOverflowCuts != 1 {
		t.Fatalf("repl_overflow_cuts = %d, want 1", st.ReplOverflowCuts)
	}
	if st.ReplFollowers != nf {
		t.Fatalf("primary sees %d followers after the cut, want %d", st.ReplFollowers, nf)
	}
	if len(st.ReplSubBuffered) != nf {
		t.Fatalf("repl_sub_buffered has %d entries, want %d", len(st.ReplSubBuffered), nf)
	}
	if st.ReplShippedLSN != uint64(n) {
		t.Fatalf("shipped LSN %d, want %d — the cut must not stall shipping", st.ReplShippedLSN, n)
	}

	// Digit-identity across all eight.
	ref, err := NewEmpty(2, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := ref.Insert(xs[i], ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotBytes(t, ref)
	for i, f := range folls {
		if got := snapshotBytes(t, f.Current()); !bytes.Equal(got, want) {
			t.Fatalf("follower %d differs from the uninterrupted run (%d vs %d bytes)",
				i, len(got), len(want))
		}
	}

	for _, f := range folls {
		if err := f.Persist(); err != nil {
			t.Fatal(err)
		}
	}
	prim.CloseDurability()
}
