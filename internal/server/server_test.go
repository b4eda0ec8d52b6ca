package server

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/persist"
	"bayestree/internal/stream"
)

// genPoint draws a labelled observation from one of three well-separated
// class blobs.
func genPoint(rng *rand.Rand) ([]float64, int) {
	label := rng.Intn(3)
	x := []float64{
		float64(label)*3 + 0.4*rng.NormFloat64(),
		-float64(label)*3 + 0.4*rng.NormFloat64(),
		rng.NormFloat64(),
	}
	return x, label
}

// newTestServer builds a server with the given shard count and config,
// pre-filled with n points through Insert.
func newTestServer(t *testing.T, shards, n int, cfg Config) (*Server, *rand.Rand) {
	t.Helper()
	s, err := NewEmpty(shards, core.DefaultConfig(3), []int{0, 1, 2}, core.MultiOptions{}, cfg)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		x, label := genPoint(rng)
		if err := s.Insert(x, label); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	return s, rng
}

// TestSingleShardMatchesMultiTree: with one shard and admission
// disabled, the served prediction must be exactly the underlying
// MultiTree's — the fan-out/combine machinery degenerates to a no-op.
func TestSingleShardMatchesMultiTree(t *testing.T) {
	s, rng := newTestServer(t, 1, 300, Config{})
	mt := s.shards[0].tree
	for i := 0; i < 50; i++ {
		x, _ := genPoint(rng)
		for _, b := range []int{1, 5, 25, 100} {
			res, err := s.Classify(x, b)
			if err != nil {
				t.Fatalf("classify: %v", err)
			}
			want, err := mt.Classify(x, core.ClassifierOptions{}, b)
			if err != nil {
				t.Fatalf("tree classify: %v", err)
			}
			if res.Label != want {
				t.Fatalf("budget %d: served %d, tree says %d", b, res.Label, want)
			}
			if res.Granted != b {
				t.Fatalf("budget %d: granted %d with admission disabled", b, res.Granted)
			}
		}
	}
}

// TestShardedAccuracy: hash-partitioned shards must still classify the
// separable blobs correctly, and the shards must share the data.
func TestShardedAccuracy(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		s, rng := newTestServer(t, shards, 600, Config{})
		st := s.Stats()
		if st.Observations != 600 {
			t.Fatalf("%d shards: %d observations, want 600", shards, st.Observations)
		}
		nonEmpty := 0
		for _, n := range st.ShardSizes {
			if n > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 2 {
			t.Fatalf("%d shards: hash routing left only %d non-empty", shards, nonEmpty)
		}
		correct := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			x, label := genPoint(rng)
			res, err := s.Classify(x, 40)
			if err != nil {
				t.Fatalf("classify: %v", err)
			}
			if res.Label == label {
				correct++
			}
		}
		if acc := float64(correct) / trials; acc < 0.95 {
			t.Fatalf("%d shards: accuracy %.3f < 0.95", shards, acc)
		}
	}
}

// TestTokenBucket pins the admission semantics on a stubbed clock.
func TestTokenBucket(t *testing.T) {
	cur := time.Unix(0, 0)
	b := newTokenBucket(100, 50)
	b.now = func() time.Time { return cur }
	b.last = cur
	b.tokens = 50

	if got := b.take(30); got != 30 {
		t.Fatalf("first take: %d, want 30", got)
	}
	if got := b.take(30); got != 20 {
		t.Fatalf("drained take: %d, want the 20 remaining", got)
	}
	if got := b.take(10); got != 0 {
		t.Fatalf("empty take: %d, want 0 (degrade, never error)", got)
	}
	cur = cur.Add(100 * time.Millisecond) // refills 10 tokens at 100/s
	if got := b.take(30); got != 10 {
		t.Fatalf("refilled take: %d, want 10", got)
	}
	cur = cur.Add(time.Hour) // refill saturates at burst
	if got := b.take(1000); got != 50 {
		t.Fatalf("saturated take: %d, want burst 50", got)
	}
	var nb *tokenBucket
	if got := nb.take(7); got != 7 {
		t.Fatalf("nil bucket: %d, want everything", got)
	}
	nb.refund(5) // must not panic

	b.refund(20)
	if got := b.take(100); got != 20 {
		t.Fatalf("post-refund take: %d, want the 20 refunded", got)
	}
	b.refund(1000) // refund saturates at burst
	if got := b.take(100); got != 50 {
		t.Fatalf("saturated refund take: %d, want burst 50", got)
	}
}

// TestBatchBudgetsAreLiteral: the stream.Engine path must honour budget
// 0 as zero node reads (the level-0 answer) rather than substituting
// the server default — each object's budget is exactly what its
// arrival gap allowed.
func TestBatchBudgetsAreLiteral(t *testing.T) {
	s, rng := newTestServer(t, 2, 300, Config{DefaultBudget: 50})
	xs := make([][]float64, 10)
	budgets := make([]int, 10)
	for i := range xs {
		xs[i], _ = genPoint(rng)
	}
	before := s.Stats().NodesGranted
	if _, err := s.ClassifyBatchBudgets(xs, budgets, 2); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if granted := s.Stats().NodesGranted - before; granted != 0 {
		t.Fatalf("zero budgets granted %d node reads; Engine budgets must be literal", granted)
	}
	// The HTTP-facing path keeps 0 = server default.
	res, err := s.Classify(xs[0], 0)
	if err != nil {
		t.Fatalf("classify: %v", err)
	}
	if res.Requested != 50 {
		t.Fatalf("single classify with budget 0 requested %d, want default 50", res.Requested)
	}
}

// TestBatchIsSoloPool: a batch is nothing but its items' solo
// classifications. Item i carries the label, and the batch leaves in
// /stats the request and node totals, of the solo literal-budget
// requests; and each item hands its unspent grant back when it
// finishes, not when the batch does, so under admission a sequential
// batch of exhausting items never starves its own tail.
func TestBatchIsSoloPool(t *testing.T) {
	s, rng := newTestServer(t, 3, 500, Config{})
	xs := make([][]float64, 40)
	budgets := make([]int, len(xs))
	for i := range xs {
		xs[i], _ = genPoint(rng)
		budgets[i] = []int{0, 3, 17, 80, -1}[i%5]
	}
	totals := func() [3]int64 {
		st := s.Stats()
		return [3]int64{st.Requests, st.NodesGranted, st.NodesRead}
	}
	delta := func(run func()) [3]int64 {
		before := totals()
		run()
		after := totals()
		return [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
	}
	want := make([]int, len(xs))
	solo := delta(func() {
		for i, x := range xs {
			res, err := s.classifyWire(ClassifyRequest{X: x, Budget: budgets[i], Literal: true})
			if err != nil {
				t.Fatalf("solo %d: %v", i, err)
			}
			want[i] = res.Label
		}
	})
	for _, workers := range []int{1, 4} {
		var got []int
		batch := delta(func() {
			var err error
			if got, err = s.ClassifyBatchBudgets(xs, budgets, workers); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: item %d (budget %d): batch label %d != solo %d", workers, i, budgets[i], got[i], want[i])
			}
		}
		if batch != solo {
			t.Fatalf("workers=%d: batch left requests/nodes_granted/nodes_read %v, the solo calls %v", workers, batch, solo)
		}
	}

	// 60 observations exhaust after a few reads; the bucket holds two
	// budgets and refills at nothing.
	const budget, items = 500, 10
	s, rng = newTestServer(t, 1, 60, Config{NodesPerSecond: 0.001, MaxBudget: budget})
	s.admit = newTokenBucket(0.001, 2*budget)
	xs, budgets = xs[:items], budgets[:items]
	for i := range xs {
		xs[i], _ = genPoint(rng)
		budgets[i] = budget
	}
	if _, err := s.ClassifyBatchBudgets(xs, budgets, 1); err != nil {
		t.Fatalf("admitted batch: %v", err)
	}
	st := s.Stats()
	if st.NodesRead > budget {
		t.Fatalf("model did not exhaust early (%d reads over %d items); test premise broken", st.NodesRead, items)
	}
	if st.NodesGranted != items*budget || st.Degraded != 0 {
		t.Fatalf("granted %d of %d node reads, %d of %d items degraded: an item's unspent grant must be back in the bucket before the next item asks",
			st.NodesGranted, items*budget, st.Degraded, items)
	}
}

// TestAdmissionRefund: budget granted beyond model exhaustion flows
// back into the bucket instead of consuming capacity.
func TestAdmissionRefund(t *testing.T) {
	// 60 observations exhaust after well under 500 reads; burst 1000.
	s, rng := newTestServer(t, 1, 60, Config{NodesPerSecond: 0.001, MaxBudget: 500})
	s.admit = newTokenBucket(0.001, 1000) // effectively no refill during the test
	for i := 0; i < 20; i++ {
		x, _ := genPoint(rng)
		res, err := s.Classify(x, 500)
		if err != nil {
			t.Fatalf("classify: %v", err)
		}
		if res.NodesRead >= res.Granted {
			t.Fatalf("model did not exhaust (read %d of %d); test premise broken", res.NodesRead, res.Granted)
		}
		// With refunds, every request should keep getting the full read
		// work the model can absorb; without them the bucket would be
		// empty after two requests (2 × 500 ≥ 1000).
		if i > 2 && res.NodesRead == 0 {
			t.Fatalf("request %d starved: unspent grants were not refunded", i)
		}
	}
}

// TestAdmissionDegradesUnderLoad: with a tiny node-read capacity, a
// burst of requests must still all be answered, with grants summing to
// at most the bucket capacity plus refill — not requests × budget.
func TestAdmissionDegradesUnderLoad(t *testing.T) {
	s, rng := newTestServer(t, 2, 300, Config{NodesPerSecond: 1000, DefaultBudget: 50})
	s.admit = newTokenBucket(1000, 200)
	var granted int64
	for i := 0; i < 100; i++ {
		x, _ := genPoint(rng)
		res, err := s.Classify(x, 50)
		if err != nil {
			t.Fatalf("classify under load: %v", err)
		}
		granted += int64(res.Granted)
	}
	st := s.Stats()
	if st.NodesRequested != 100*50 {
		t.Fatalf("requested %d, want %d", st.NodesRequested, 100*50)
	}
	// 100 sequential requests take well under a second; the bucket can
	// have granted at most burst + ~1s of refill.
	if granted > 200+1000 {
		t.Fatalf("granted %d node reads, admission not limiting", granted)
	}
	if granted == 100*50 {
		t.Fatal("granted everything; admission had no effect")
	}
}

// TestConcurrentClassifyInsert hammers reads and writes together; run
// under -race this is the shard-locking proof.
func TestConcurrentClassifyInsert(t *testing.T) {
	s, _ := newTestServer(t, 4, 300, Config{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				x, _ := genPoint(rng)
				if _, err := s.Classify(x, 20); err != nil {
					t.Errorf("classify: %v", err)
					return
				}
			}
		}(int64(w + 10))
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 500; i++ {
		x, label := genPoint(rng)
		if err := s.Insert(x, label); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if got := s.Len(); got != 800 {
		t.Fatalf("size %d after concurrent inserts, want 800", got)
	}
}

// TestSnapshotRoundTrip: a server saved and reloaded must classify
// digit-identically shard by shard.
func TestSnapshotRoundTrip(t *testing.T) {
	s, rng := newTestServer(t, 3, 400, Config{})
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	s2, err := FromSnapshot(&buf, Config{})
	if err != nil {
		t.Fatalf("from snapshot: %v", err)
	}
	if s2.NumShards() != 3 || s2.Len() != s.Len() {
		t.Fatalf("reloaded %d shards / %d observations, want 3 / %d", s2.NumShards(), s2.Len(), s.Len())
	}
	for i := 0; i < 100; i++ {
		x, _ := genPoint(rng)
		a, err1 := s.Classify(x, 30)
		b, err2 := s2.Classify(x, 30)
		if err1 != nil || err2 != nil {
			t.Fatalf("classify: %v / %v", err1, err2)
		}
		if a.Label != b.Label || a.NodesRead != b.NodesRead {
			t.Fatalf("snapshot diverged: %+v vs %+v", a, b)
		}
	}
}

// TestStreamEngine drives the live server with stream.RunBatch — the
// ingest-while-serving path: windows are classified in parallel against
// the shards, labelled items are inserted between windows.
func TestStreamEngine(t *testing.T) {
	s, rng := newTestServer(t, 2, 300, Config{})
	var _ stream.Engine = s // compile-time interface check
	items := make([]stream.Item, 400)
	for i := range items {
		x, label := genPoint(rng)
		items[i] = stream.Item{X: x, Label: label, Labeled: true}
	}
	res, err := stream.RunBatch(s, items, stream.Constant{Interval: 0.01},
		stream.Budgeter{NodesPerSecond: 4000, MaxNodes: 100}, 5, 32, 4)
	if err != nil {
		t.Fatalf("run batch: %v", err)
	}
	if res.Learned != 400 {
		t.Fatalf("learned %d, want 400", res.Learned)
	}
	if s.Len() != 700 {
		t.Fatalf("server size %d after ingest, want 700", s.Len())
	}
	if res.Accuracy < 0.95 {
		t.Fatalf("ingest-while-serving accuracy %.3f < 0.95", res.Accuracy)
	}
}

// TestEmptyAndValidation covers constructor and routing edge cases.
func TestEmptyAndValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New with no shards succeeded")
	}
	if _, err := NewEmpty(0, core.DefaultConfig(2), []int{0, 1}, core.MultiOptions{}, Config{}); err == nil {
		t.Fatal("NewEmpty with 0 shards succeeded")
	}
	s, err := NewEmpty(2, core.DefaultConfig(2), []int{0, 1}, core.MultiOptions{}, Config{})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if _, err := s.Classify([]float64{0, 0}, 5); err == nil {
		t.Fatal("classify against empty server succeeded")
	}
	if _, err := s.Classify([]float64{0}, 5); err == nil {
		t.Fatal("classify with wrong dim succeeded")
	}
	if err := s.Insert([]float64{0}, 0); err == nil {
		t.Fatal("insert with wrong dim succeeded")
	}
	if err := s.Insert([]float64{0, 0}, 9); err == nil {
		t.Fatal("insert with unknown label succeeded")
	}
	// One insert is enough to start serving (the other shard stays empty).
	if err := s.Insert([]float64{1, 1}, 0); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := s.Insert([]float64{-1, -1}, 1); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := s.Classify([]float64{1, 1}, 5); err != nil {
		t.Fatalf("classify after first inserts: %v", err)
	}
}

// TestOneClassModelRefused: a one-class tree is a class tree of the
// per-class forest, not a model that decides anything; the server
// refuses it however it arrives — built empty or read from a snapshot.
func TestOneClassModelRefused(t *testing.T) {
	if _, err := NewEmpty(2, core.DefaultConfig(2), []int{7}, core.MultiOptions{}, Config{}); err == nil {
		t.Fatal("NewEmpty served a one-class model")
	}
	one, err := core.NewMultiTree(core.DefaultConfig(2), []int{7}, core.MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := one.Insert([]float64{1, 1}, 7); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := persist.EncodeMultiTrees(&snap, []*core.MultiTree{one}); err != nil {
		t.Fatal(err)
	}
	if _, err := FromSnapshot(&snap, Config{}); err == nil {
		t.Fatal("FromSnapshot served a one-class model")
	}
}
