package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
)

// conceptPoint draws a labelled observation from one of two mirrored
// concepts: under concept A class 0 lives bottom-left and class 1
// top-right; concept B swaps them — maximally contradictory drift.
func conceptPoint(rng *rand.Rand, label int, swapped bool) []float64 {
	c := label
	if swapped {
		c = 1 - label
	}
	base := 0.25 + 0.5*float64(c)
	return []float64{base + 0.05*rng.NormFloat64(), base + 0.05*rng.NormFloat64()}
}

func decayServerConfig(decay bool) Config {
	cfg := Config{DefaultBudget: 40}
	if decay {
		cfg.Decay = core.DecayOptions{Lambda: 1, MinWeight: 0.05}
	}
	return cfg
}

func newDecayTestServer(t *testing.T, decay bool) *Server {
	t.Helper()
	treeCfg := core.Config{Dim: 2, MinFanout: 2, MaxFanout: 5, MinLeaf: 2, MaxLeaf: 6}
	s, err := NewEmpty(2, treeCfg, []int{0, 1}, core.MultiOptions{}, decayServerConfig(decay))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// httpInsertBatch bulk-inserts labelled points through the NDJSON
// /insert endpoint.
func httpInsertBatch(t *testing.T, url string, xs [][]float64, labels []int) {
	t.Helper()
	var body bytes.Buffer
	for i, x := range xs {
		line, err := json.Marshal(insertRequest{X: x, Label: labels[i]})
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	resp, err := http.Post(url+"/insert", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk insert status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ack map[string]interface{}
		if err := dec.Decode(&ack); err != nil {
			t.Fatal(err)
		}
		if e, ok := ack["error"]; ok {
			t.Fatalf("insert error: %v", e)
		}
	}
}

// httpClassify classifies one point through /classify.
func httpClassify(t *testing.T, url string, x []float64, budget int) Result {
	t.Helper()
	body, err := json.Marshal(ClassifyRequest{X: x, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d", resp.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

func httpStats(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// The acceptance test of the drift tentpole, at the HTTP level: insert
// from concept A, advance decay epochs while concept B streams in, and
// the decay-enabled server's post-drift accuracy must beat the
// append-only baseline while its node count stays bounded.
func TestServerTracksDriftOverHTTP(t *testing.T) {
	decaySrv := newDecayTestServer(t, true)
	baseSrv := newDecayTestServer(t, false)
	decayHTTP := httptest.NewServer(decaySrv.Handler())
	defer decayHTTP.Close()
	baseHTTP := httptest.NewServer(baseSrv.Handler())
	defer baseHTTP.Close()

	makeBatch := func(rng *rand.Rand, n int, swapped bool) ([][]float64, []int) {
		xs := make([][]float64, n)
		ys := make([]int, n)
		for i := range xs {
			ys[i] = i % 2
			xs[i] = conceptPoint(rng, ys[i], swapped)
		}
		return xs, ys
	}
	accuracy := func(url string, rng *rand.Rand, swapped bool) float64 {
		const probes = 200
		correct := 0
		for i := 0; i < probes; i++ {
			label := i % 2
			res := httpClassify(t, url, conceptPoint(rng, label, swapped), 40)
			if res.Label == label {
				correct++
			}
		}
		return float64(correct) / probes
	}

	// Phase 1: both servers learn concept A.
	rng := rand.New(rand.NewSource(21))
	xs, ys := makeBatch(rng, 400, false)
	httpInsertBatch(t, decayHTTP.URL, xs, ys)
	httpInsertBatch(t, baseHTTP.URL, xs, ys)
	if acc := accuracy(decayHTTP.URL, rand.New(rand.NewSource(22)), false); acc < 0.9 {
		t.Fatalf("pre-drift accuracy %.3f, want ≥ 0.9", acc)
	}

	// Phase 2: the concept swaps; epochs advance as B streams in. The
	// baseline gets the same data but never forgets.
	for round := 0; round < 8; round++ {
		xs, ys := makeBatch(rng, 100, true)
		httpInsertBatch(t, decayHTTP.URL, xs, ys)
		httpInsertBatch(t, baseHTTP.URL, xs, ys)
		decaySrv.AdvanceDecay()
	}

	probeRng := rand.New(rand.NewSource(23))
	accDecay := accuracy(decayHTTP.URL, probeRng, true)
	accBase := accuracy(baseHTTP.URL, rand.New(rand.NewSource(23)), true)
	if accDecay < 0.95 {
		t.Errorf("decay server post-drift accuracy %.3f, want ≥ 0.95", accDecay)
	}
	if accDecay <= accBase {
		t.Errorf("decay server (%.3f) did not beat append-only baseline (%.3f) after drift", accDecay, accBase)
	}

	decStats := httpStats(t, decayHTTP.URL)
	baseStats := httpStats(t, baseHTTP.URL)
	if !decStats.DecayEnabled || decStats.DecayEpoch != 8 {
		t.Errorf("decay stats: enabled=%v epoch=%d, want enabled at epoch 8", decStats.DecayEnabled, decStats.DecayEpoch)
	}
	if decStats.PointsPruned == 0 {
		t.Error("decay server pruned nothing across 8 epochs of drift")
	}
	// Bounded memory: the decaying server holds a bounded working set
	// (~the mass of the last few epochs), while the baseline holds the
	// full 1200-observation history.
	if decStats.Observations >= baseStats.Observations {
		t.Errorf("decay server observations %d not below baseline %d", decStats.Observations, baseStats.Observations)
	}
	if decStats.Nodes >= baseStats.Nodes {
		t.Errorf("decay server nodes %d not below baseline %d", decStats.Nodes, baseStats.Nodes)
	}
	if decStats.Observations > 500 {
		t.Errorf("decay server observations %d not bounded (inserted 1200)", decStats.Observations)
	}
	t.Logf("post-drift accuracy: decay %.3f vs append-only %.3f; decay obs=%d nodes=%d pruned=%d vs baseline obs=%d nodes=%d",
		accDecay, accBase, decStats.Observations, decStats.Nodes, decStats.PointsPruned,
		baseStats.Observations, baseStats.Nodes)
}

// TestServerDecayBoundariesUnderConcurrentTraffic: concurrent HTTP
// inserts cross decay boundaries — each sweeping its shard under the
// write lock it holds — while /classify and /stats read the same shards
// (run under -race in CI). However the writes interleave, each shard
// ends at exactly one epoch per DecayEvery of its writes.
func TestServerDecayBoundariesUnderConcurrentTraffic(t *testing.T) {
	treeCfg := core.Config{Dim: 2, MinFanout: 2, MaxFanout: 5, MinLeaf: 2, MaxLeaf: 6}
	cfg := decayServerConfig(true)
	cfg.DecayEvery = 16
	s, err := NewEmpty(2, treeCfg, []int{0, 1}, core.MultiOptions{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seedRng := rand.New(rand.NewSource(31))
	for i := 0; i < 100; i++ {
		if err := s.Insert(conceptPoint(seedRng, i%2, false), i%2); err != nil {
			t.Fatal(err)
		}
	}

	const writers, perWriter = 2, 200
	stop := make(chan struct{})
	var writing, reading sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(seed int64) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				label := rng.Intn(2)
				body := fmt.Sprintf(`{"x":[%f,%f],"label":%d}`,
					0.25+0.5*float64(label)+0.05*rng.NormFloat64(),
					0.25+0.5*float64(label)+0.05*rng.NormFloat64(), label)
				resp, err := http.Post(ts.URL+"/insert", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("insert status %d", resp.StatusCode)
					return
				}
			}
		}(int64(40 + w))
	}
	for r := 0; r < 3; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			rng := rand.New(rand.NewSource(int64(50 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				path, body := "/classify", fmt.Sprintf(`{"x":[%f,%f],"budget":20}`, rng.Float64(), rng.Float64())
				if r == 2 {
					path, body = "/stats", ""
				}
				var resp *http.Response
				var err error
				if body == "" {
					resp, err = http.Get(ts.URL + path)
				} else {
					resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader(body))
				}
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}(r)
	}
	writing.Wait()
	close(stop)
	reading.Wait()

	var writes uint64
	for i, sh := range s.shards {
		writes += sh.writes
		if want := int64(sh.writes / 16); sh.tree.Epoch() != want {
			t.Errorf("shard %d: epoch %d after %d writes, want %d", i, sh.tree.Epoch(), sh.writes, want)
		}
	}
	if writes != 100+writers*perWriter {
		t.Fatalf("shards counted %d writes, want %d", writes, 100+writers*perWriter)
	}
	if st := s.Stats(); st.DecayEpoch == 0 || st.PointsPruned == 0 {
		t.Errorf("after %d writes: epoch %d, %d points pruned; want boundaries that prune", writes, st.DecayEpoch, st.PointsPruned)
	}
}

// TestDecayEveryZeroWaitsForAdvanceDecay is the shape the benchmark's
// cluster_stream row runs: decay set, DecayEvery 0. Neither workload
// then takes a decay step on its own, however many writes it takes,
// while AdvanceDecay still does: the classifier's epoch advances, the
// cluster server (which fades on its clock and reports epoch 0) prunes.
func TestDecayEveryZeroWaitsForAdvanceDecay(t *testing.T) {
	cs, err := NewCluster(clustree.DefaultConfig(2), 2, Config{Decay: core.DecayOptions{Lambda: 0.01, MinWeight: 0.5}}, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := newDecayTestServer(t, true)
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 2000; i++ {
		if _, err := cs.Insert([]float64{rng.Float64(), rng.Float64()}, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Insert(conceptPoint(rng, i%2, false), i%2); err != nil {
			t.Fatal(err)
		}
	}
	for name, st := range map[string]Stats{"classify": s.Stats(), "cluster": cs.Stats().Stats} {
		if st.DecayEpoch != 0 || st.PointsPruned != 0 || st.SubtreesPruned != 0 {
			t.Fatalf("%s: epoch %d, %d points and %d subtrees pruned after 2,000 writes with DecayEvery 0",
				name, st.DecayEpoch, st.PointsPruned, st.SubtreesPruned)
		}
	}
	swept := cs.AdvanceDecay()
	if st := cs.Stats(); swept.PointsPruned == 0 || st.PointsPruned != int64(swept.PointsPruned) || st.DecayEpoch != 0 {
		t.Fatalf("cluster AdvanceDecay: %+v; /stats %d points pruned, epoch %d", swept, st.PointsPruned, st.DecayEpoch)
	}
	s.AdvanceDecay()
	if ep := s.Stats().DecayEpoch; ep != 1 {
		t.Fatalf("classify AdvanceDecay: epoch %d, want 1", ep)
	}
}

// TestDecayingServerStartsNoGoroutine: forgetting runs inside the
// writes, so opening a decaying server — of either workload — starts no
// goroutine.
func TestDecayingServerStartsNoGoroutine(t *testing.T) {
	cfg := Config{Decay: core.DecayOptions{Lambda: 0.1, MinWeight: 0.05}, DecayEvery: 1}
	const n = 8
	before := runtime.NumGoroutine()
	var keep []any
	for i := 0; i < n; i++ {
		s, err := NewEmpty(2, core.DefaultConfig(2), []int{0, 1}, core.MultiOptions{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := NewCluster(clustree.DefaultConfig(2), 2, cfg, ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, s, cs)
	}
	if after := runtime.NumGoroutine(); after-before >= n {
		t.Fatalf("opening %d decaying servers of each workload took the goroutine count from %d to %d", n, before, after)
	}
	runtime.KeepAlive(keep)
}

// A decayed server's model must survive the snapshot round trip: decay
// state and weights reload, answers match, and maintenance keeps
// working on the reloaded server.
func TestServerDecaySnapshotRoundTrip(t *testing.T) {
	s := newDecayTestServer(t, true)
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 200; i++ {
		if err := s.Insert(conceptPoint(rng, i%2, false), i%2); err != nil {
			t.Fatal(err)
		}
	}
	s.AdvanceDecay()
	for i := 0; i < 100; i++ {
		if err := s.Insert(conceptPoint(rng, i%2, true), i%2); err != nil {
			t.Fatal(err)
		}
	}
	s.AdvanceDecay()
	s.AdvanceDecay()

	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Reload with no decay override: the trees' own persisted decay
	// state must re-arm forgetting.
	re, err := FromSnapshot(bytes.NewReader(buf.Bytes()), Config{DefaultBudget: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !re.Stats().DecayEnabled {
		t.Fatal("reloaded server lost its decay state")
	}
	probeRng := rand.New(rand.NewSource(62))
	for i := 0; i < 50; i++ {
		x := conceptPoint(probeRng, i%2, true)
		a, err := s.Classify(x, -1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := re.Classify(x, -1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Label != b.Label {
			t.Fatalf("probe %d: reloaded server predicts %d, original %d", i, b.Label, a.Label)
		}
	}
	beforeObs := re.Stats().Observations
	re.AdvanceDecay()
	st := re.Stats()
	if st.DecayEpoch == 0 {
		t.Error("reloaded server's epoch did not advance")
	}
	if st.Observations > beforeObs {
		t.Errorf("reloaded server grew during sweep: %d -> %d", beforeObs, st.Observations)
	}
}
