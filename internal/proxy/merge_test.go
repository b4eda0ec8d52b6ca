package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/server"
	"bayestree/internal/wire"
)

// genPoint draws from three Gaussian blobs, one per class — the same
// synthetic mixture the server tests use.
func genPoint(rng *rand.Rand) ([]float64, int) {
	label := rng.Intn(3)
	centers := [3][3]float64{{0, 0, 0}, {3, -3, 0}, {6, -6, 0}}
	x := make([]float64, 3)
	for d := 0; d < 3; d++ {
		x[d] = centers[label][d] + rng.NormFloat64()*0.5
	}
	return x, label
}

// newClassGroups builds k single-shard in-memory classification
// servers behind httptest listeners plus a proxy over them (one group
// each, the backend as its own primary), and the k-shard single-process
// reference the proxy must match digit for digit.
func newClassGroups(t *testing.T, k int, cfg Config) (*Proxy, *server.Server) {
	t.Helper()
	labels := []int{0, 1, 2}
	var groups []Group
	for i := 0; i < k; i++ {
		s, err := server.NewEmpty(1, core.DefaultConfig(3), labels, core.MultiOptions{}, server.Config{})
		if err != nil {
			t.Fatalf("backend %d: %v", i, err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		groups = append(groups, Group{Primary: ts.URL})
	}
	ref, err := server.NewEmpty(k, core.DefaultConfig(3), labels, core.MultiOptions{}, server.Config{})
	if err != nil {
		t.Fatalf("ref: %v", err)
	}
	cfg.Groups = groups
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p, ref
}

// postJSON posts one JSON body and returns status plus the raw
// response.
func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, data
}

// getBytes fetches one URL's body.
func getBytes(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, data
}

// TestProxyClassifyMergeExact is the classify half of the merge
// acceptance criterion: inserts routed through the proxy across 3
// single-shard groups, then proxied classifications must be
// digit-identical — label, scores, weight, granted, nodes read — to a
// 3-shard single process over the same stream. Holds because the proxy
// routes with the engine's shard hash, splits budgets under the
// in-process contract, and merges with the same size-weighted
// log-sum-exp (exact for single-shard groups).
func TestProxyClassifyMergeExact(t *testing.T) {
	p, ref := newClassGroups(t, 3, Config{})
	p.Start()
	pts := httptest.NewServer(p.Handler())
	defer pts.Close()

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		x, label := genPoint(rng)
		if err := ref.Insert(x, label); err != nil {
			t.Fatalf("ref insert %d: %v", i, err)
		}
		body, _ := json.Marshal(map[string]interface{}{"x": x, "label": label})
		status, resp := postJSON(t, pts.URL+"/insert", string(body))
		if status != http.StatusOK {
			t.Fatalf("proxy insert %d: status %d: %s", i, status, resp)
		}
	}
	p.ProbeNow() // pick up the final observation counts for budget splits

	for trial := 0; trial < 60; trial++ {
		x, _ := genPoint(rng)
		budget := []int{0, 1, 3, 7, 32, 100, -1}[trial%7]
		body, _ := json.Marshal(map[string]interface{}{"x": x, "budget": budget, "scores": true})
		status, resp := postJSON(t, pts.URL+"/classify", string(body))
		if status != http.StatusOK {
			t.Fatalf("trial %d: proxy status %d: %s", trial, status, resp)
		}
		var got server.Result
		if err := json.Unmarshal(resp, &got); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		want, err := ref.Classify(x, budget)
		if err != nil {
			t.Fatalf("trial %d: ref classify: %v", trial, err)
		}
		if got.Label != want.Label {
			t.Fatalf("trial %d (budget %d): label %d != ref %d", trial, budget, got.Label, want.Label)
		}
		if got.Requested != want.Requested || got.Granted != want.Granted ||
			got.NodesRead != want.NodesRead || got.Degraded != want.Degraded {
			t.Fatalf("trial %d: budgets %+v != ref %+v", trial, got, want)
		}
		if got.Weight != want.Weight {
			t.Fatalf("trial %d: weight %v != ref %v", trial, got.Weight, want.Weight)
		}
		if len(got.Scores) != len(want.Scores) {
			t.Fatalf("trial %d: %d scores != ref %d", trial, len(got.Scores), len(want.Scores))
		}
		for c := range want.Scores {
			if got.Scores[c] != want.Scores[c] {
				t.Fatalf("trial %d class %d: score %v != ref %v (digit-identity broken)",
					trial, c, got.Scores[c], want.Scores[c])
			}
		}
	}

	// The proxy takes the request a backend takes: whatever the budget
	// and whether or not it is literal, the proxied answer is the flat
	// server's answer to the same body, byte for byte.
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	x, _ := genPoint(rng)
	for _, budget := range []int{0, 5, -1, server.DefaultMaxBudget + 1} {
		for _, literal := range []bool{false, true} {
			body, _ := json.Marshal(wire.ClassifyRequest{X: x, Budget: budget, Scores: true, Literal: literal})
			st1, got := postJSON(t, pts.URL+"/classify", string(body))
			st2, want := postJSON(t, refTS.URL+"/classify", string(body))
			if st1 != http.StatusOK || st2 != http.StatusOK {
				t.Fatalf("budget %d literal %v: status proxy=%d ref=%d", budget, literal, st1, st2)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("budget %d literal %v diverged from the flat server:\nproxy: %sref:   %s", budget, literal, got, want)
			}
		}
	}

	// Routing sanity: every group primary saw inserts, and the counts
	// match the engine's own shard partition.
	st := p.CurrentStats()
	if !st.Proxy {
		t.Fatal("stats missing proxy marker")
	}
	refSizes := ref.Stats().ShardSizes
	for i, b := range st.Backends {
		if b.Observations != refSizes[i] {
			t.Fatalf("group %d has %d observations, ref shard has %d — routing diverged",
				i, b.Observations, refSizes[i])
		}
	}
}

// TestProxyClusterMergeExact is the clustering half: objects ingested
// through the proxy across 3 single-shard cluster groups, then the
// proxied /microclusters and /macroclusters responses must be
// byte-identical to a 3-shard single process over the same stream
// (decay off: each group's logical clock ticks only on its own
// inserts, so digit-identity across topologies requires λ=0).
func TestProxyClusterMergeExact(t *testing.T) {
	ccfg := clustree.DefaultConfig(3)
	ccfg.Lambda = 0
	var groups []Group
	for i := 0; i < 3; i++ {
		s, err := server.NewCluster(ccfg, 1, server.Config{}, server.ClusterOptions{})
		if err != nil {
			t.Fatalf("backend %d: %v", i, err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		groups = append(groups, Group{Primary: ts.URL})
	}
	ref, err := server.NewCluster(ccfg, 3, server.Config{}, server.ClusterOptions{})
	if err != nil {
		t.Fatalf("ref: %v", err)
	}
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()

	p, err := New(Config{Groups: groups})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	p.Start()
	pts := httptest.NewServer(p.Handler())
	defer pts.Close()

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		x, _ := genPoint(rng)
		body, _ := json.Marshal(map[string]interface{}{"x": x, "budget": 6})
		status, resp := postJSON(t, pts.URL+"/cluster", string(body))
		if status != http.StatusOK {
			t.Fatalf("proxy cluster %d: status %d: %s", i, status, resp)
		}
		if _, err := ref.Insert(x, 6); err != nil {
			t.Fatalf("ref cluster %d: %v", i, err)
		}
	}

	for _, path := range []string{
		"/microclusters",
		"/microclusters?minw=2",
		"/macroclusters",
		"/macroclusters?eps=1.5&minw=3",
	} {
		st1, got := getBytes(t, pts.URL+path)
		st2, want := getBytes(t, refTS.URL+path)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("%s: status proxy=%d ref=%d", path, st1, st2)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s diverged from single-process run:\nproxy: %s\nref:   %s", path, got, want)
		}
	}

	// Both tiers parse a float parameter alike: absent or a finite
	// number is served, anything else is the client's error.
	for eps, want := range map[string]int{
		"": http.StatusOK, "1.5": http.StatusOK,
		"1.5abc": http.StatusBadRequest, "NaN": http.StatusBadRequest,
		"+Inf": http.StatusBadRequest, "1e400": http.StatusBadRequest,
	} {
		path := "/macroclusters?eps=" + url.QueryEscape(eps)
		viaProxy, _ := getBytes(t, pts.URL+path)
		direct, _ := getBytes(t, refTS.URL+path)
		if viaProxy != want || direct != want {
			t.Errorf("%s: status proxy=%d backend=%d, want %d", path, viaProxy, direct, want)
		}
	}
	// Likewise minw on /microclusters, which the proxy forwards: what
	// reaches the backends is the number it parsed to, so text after the
	// number cannot ride along as a fragment or a second parameter.
	for minw, want := range map[string]int{
		"": http.StatusOK, "2": http.StatusOK, "1e21": http.StatusOK,
		"1#frag": http.StatusBadRequest, "1&minw=abc": http.StatusBadRequest,
		"1&eps=2": http.StatusBadRequest,
	} {
		path := "/microclusters?minw=" + url.QueryEscape(minw)
		viaProxy, _ := getBytes(t, pts.URL+path)
		direct, _ := getBytes(t, refTS.URL+path)
		if viaProxy != want || direct != want {
			t.Errorf("%s: status proxy=%d backend=%d, want %d", path, viaProxy, direct, want)
		}
	}
}

// TestMergeClassifyRejectsMisalignedLabels pins the merge guard: groups
// answering with different label sets must fail loudly, not mis-mix.
func TestMergeClassifyRejectsMisalignedLabels(t *testing.T) {
	a := &server.Result{Labels: []int{0, 1}, Scores: wire.ScoreList{-1, -2}, Weight: 1}
	b := &server.Result{Labels: []int{0, 2}, Scores: wire.ScoreList{-1, -2}, Weight: 1}
	if _, err := mergeClassify([]*server.Result{a, b}, 10); err == nil {
		t.Fatal("misaligned label sets merged without error")
	}
}

// TestProxyReadyzAndWriteRouting covers the plumbing: readiness flips
// with draining, unroutable writes fail with 503 + Retry-After, and a
// write sent while the proxy only knows a follower seed follows the
// follower's 307 to the true primary.
func TestProxyReadyzAndWriteRouting(t *testing.T) {
	labels := []int{0, 1, 2}
	prim, err := server.NewEmpty(1, core.DefaultConfig(3), labels, core.MultiOptions{}, server.Config{})
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	primTS := httptest.NewServer(prim.Handler())
	defer primTS.Close()

	// A fake "follower" that 307s every write to the real primary, the
	// way a follower backend does.
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/stats":
			fmt.Fprintf(w, `{"role":"follower","staleness_ms":1,"observations":0,"weight":0}`)
		case "/insert", "/cluster":
			w.Header().Set("Location", primTS.URL+r.URL.Path)
			w.WriteHeader(http.StatusTemporaryRedirect)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer follower.Close()

	// Group whose configured "primary" is actually the redirecting
	// follower: the proxy's optimistic write must land on the true
	// primary via 307-follow.
	p, err := New(Config{Groups: []Group{{Primary: follower.URL}}, WriteRetries: 1,
		WriteTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()
	p.Start()
	pts := httptest.NewServer(p.Handler())
	defer pts.Close()

	status, resp := postJSON(t, pts.URL+"/insert", `{"x":[3.0,-3.0,0.0],"label":1}`)
	if status != http.StatusOK {
		t.Fatalf("redirected insert: status %d: %s", status, resp)
	}
	if prim.Len() != 1 {
		t.Fatalf("primary has %d observations after 307-followed insert, want 1", prim.Len())
	}
	st := p.CurrentStats()
	if st.Backends[0].Redirects < 1 {
		t.Fatalf("redirect counter %d, want >= 1", st.Backends[0].Redirects)
	}

	// Readiness: healthy now, 503 + Retry-After while draining.
	resp2, err := http.Get(pts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d, want 200", resp2.StatusCode)
	}
	p.SetDraining(true)
	resp2, err = http.Get(pts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz has no Retry-After")
	}
	p.SetDraining(false)

	// NDJSON bodies are refused with a targeted error.
	req, _ := http.NewRequest(http.MethodPost, pts.URL+"/classify", strings.NewReader(`{}`))
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("ndjson classify: %v", err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("ndjson classify status %d, want 400", resp3.StatusCode)
	}
}
