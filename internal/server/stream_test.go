package server

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/wire"
)

// clusterStream is the shape the repo benchmark's cluster_stream row
// serves, in process: a 4-shard clustering server over four dimensions
// with λ = 0.001 and a pruning floor of 0.5, warm with the given number
// of objects from eight Gaussian sources whose centres drift 2e-6 an
// object, and NDJSON bodies of 64 objects at budget 8 drawn from the
// same sources.
func clusterStream(tb testing.TB, objects, bodies int) (*ClusterServer, [][]byte) {
	tb.Helper()
	ccfg := clustree.DefaultConfig(4)
	ccfg.Lambda = 0.001
	cs, err := NewCluster(ccfg, 4, Config{Decay: core.DecayOptions{Lambda: 0.001, MinWeight: 0.5}}, ClusterOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	centres, steps := make([][4]float64, 8), make([][4]float64, 8)
	for s := range centres {
		norm := 0.0
		for d := range centres[s] {
			centres[s][d], steps[s][d] = 0.2+0.6*rng.Float64(), rng.NormFloat64()
			norm += steps[s][d] * steps[s][d]
		}
		for d := range steps[s] {
			steps[s][d] *= 2e-6 / math.Sqrt(norm)
		}
	}
	object := func() []float64 {
		x := make([]float64, 4)
		for d, c := range centres[rng.Intn(len(centres))] {
			x[d] = c + 0.02*rng.NormFloat64()
		}
		for s := range centres {
			for d := range centres[s] {
				centres[s][d] += steps[s][d]
			}
		}
		return x
	}
	for i := 0; i < objects; i++ {
		if _, err := cs.Insert(object(), 8); err != nil {
			tb.Fatal(err)
		}
	}
	out := make([][]byte, bodies)
	for b := range out {
		for i := 0; i < streamWindow; i++ {
			out[b] = wire.ClusterRequest{X: object(), Budget: 8}.AppendJSON(out[b])
		}
	}
	return cs, out
}

// serveRecorded drives h with one POST on a recorder, as the benchmark's
// server.http rung does.
func serveRecorded(h http.Handler, path, ctype string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestClusterStreamAllocs bounds what a /cluster NDJSON window costs
// above the ingest itself: a line allocates its decoded point and
// nothing else — no string, no boxed answer, no reflection — so a
// 64-line body costs what 64 ClusterServer.Insert calls cost, one
// allocation a line, and a fixed amount for the request (the recorder
// and request built here, the window's worker pool): under two and a
// half per line, where a line that went through encoding/json cost
// twelve. The ingest itself allocates only when it opens a micro-cluster
// or splits, so what a whole body costs (133 measured; the bound leaves
// a fifth of margin) is one decoded point a line and the request.
func TestClusterStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	cs, bodies := clusterStream(t, 20000, 200)
	h := cs.Handler()
	next := 0
	perBody := testing.AllocsPerRun(len(bodies)-1, func() {
		if rec := serveRecorded(h, "/cluster", "application/x-ndjson", bodies[next]); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		next++
	})
	x := []float64{0.5, 0.5, 0.5, 0.5}
	perInsert := testing.AllocsPerRun(1000, func() {
		if _, err := cs.Insert(x, 8); err != nil {
			t.Fatal(err)
		}
	})
	perLine := (perBody - streamWindow*perInsert) / streamWindow
	t.Logf("%.0f allocations per 64-line body, %.1f per in-process insert: %.2f per line above the ingest", perBody, perInsert, perLine)
	if perLine > 2.5 {
		t.Errorf("a /cluster line costs %.2f allocations above its ingest (body %.0f, insert %.1f), want at most 2.5", perLine, perBody, perInsert)
	}
	if perBody > 160 {
		t.Errorf("a 64-line /cluster body allocates %.0f times, want at most 160", perBody)
	}
}

// discardWriter is a ResponseWriter that keeps only the status and the
// body's length, so an allocation count sees the handler and not a
// recorder's buffer growing with the answer.
type discardWriter struct {
	header  http.Header
	code, n int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// serveDiscarded drives h with req into w, emptied first.
func serveDiscarded(h http.Handler, w *discardWriter, req *http.Request) {
	*w = discardWriter{header: w.header}
	h.ServeHTTP(w, req)
}

// TestMicroClustersRouteAllocs pins what a /microclusters read costs: the
// micro-clusters are copied into the server's spare set, whose vectors
// the next read reuses, and encoded into a pooled buffer, so the count
// is the request's own — the same at 5,000 as at 20,000 objects, and
// small — where a set built afresh cost some six allocations a
// micro-cluster.
func TestMicroClustersRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	var counts, sizes [2]float64
	for i, objects := range []int{5000, 20000} {
		cs, _ := clusterStream(t, objects, 0)
		h := cs.Handler()
		w := &discardWriter{header: make(http.Header)}
		req := httptest.NewRequest("GET", "/microclusters?minw=0.5", nil)
		counts[i] = testing.AllocsPerRun(100, func() {
			if serveDiscarded(h, w, req); w.code != http.StatusOK || w.n == 0 {
				t.Fatalf("status %d, %d bytes", w.code, w.n)
			}
		})
		sizes[i] = float64(len(cs.MicroClusters(0.5)))
	}
	t.Logf("%.0f and %.0f allocations a read over %.0f and %.0f micro-clusters", counts[0], counts[1], sizes[0], sizes[1])
	if sizes[1] <= sizes[0] {
		t.Fatalf("the larger model holds %.0f micro-clusters, the smaller %.0f: the two sizes do not differ", sizes[1], sizes[0])
	}
	if counts[0] != counts[1] || counts[1] > 10 {
		t.Errorf("a /microclusters read allocates %.0f times at %.0f micro-clusters and %.0f at %.0f, want one count of at most 10",
			counts[0], sizes[0], counts[1], sizes[1])
	}
}

// TestClassifyHTTPAllocs bounds a single-body /classify above the
// classification: the body is read into a pooled buffer, decoded in
// place and the answer appended and written once.
func TestClassifyHTTPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s, _ := newTestServer(t, 4, 600, Config{})
	h := s.Handler()
	x := []float64{3.0, -3.0, 0.2}
	body := wire.ClassifyRequest{X: x, Budget: 4}.AppendJSON(nil)
	perRequest := testing.AllocsPerRun(500, func() {
		if rec := serveRecorded(h, "/classify", "application/json", body); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
	perClassify := testing.AllocsPerRun(500, func() {
		if _, err := s.Classify(x, 4); err != nil {
			t.Fatal(err)
		}
	})
	// What is left is the recorder and request built above (≈ 20) and the
	// request's own: its point, the body-size guard, the content type.
	t.Logf("%.0f allocations per request, %.0f per in-process classification", perRequest, perClassify)
	if over := perRequest - perClassify; over > 25 {
		t.Errorf("a /classify request costs %.0f allocations above its classification (%.0f vs %.0f), want at most 25", over, perRequest, perClassify)
	}
	// Twelve while admission handed back a closure to settle the grant.
	if perClassify > 10 {
		t.Errorf("an in-process classification allocates %.0f times, want at most 10", perClassify)
	}
}

// TestWireBytes pins the bytes of the answers whose shape is typed since
// the codec moved to internal/wire and was a map before: the /insert
// acks in both forms, a failed /insert line, and the error body.
func TestWireBytes(t *testing.T) {
	s, _ := newTestServer(t, 2, 50, Config{})
	h := s.Handler()
	for _, tc := range []struct{ path, ctype, body, want string }{
		{"/insert", "application/json", `{"x":[3.0,-3.0,0.2],"label":1}`, `{"observations":51,"ok":true}` + "\n"},
		{"/insert", "application/x-ndjson", `{"x":[0.1,0.1,0.0],"label":0}` + "\n" + `{"x":[1,2],"label":0}`,
			`{"ok":true}` + "\n" + `{"error":"server: point dim 2 != model dim 3"}` + "\n"},
		{"/insert", "application/json", `{"x":[1,2,3],"label":9}`, `{"error":"core: unknown class label 9"}` + "\n"},
		{"/classify", "application/x-ndjson", `{"x":[1]}`,
			`{"label":0,"requested":0,"granted":0,"nodes_read":0,"degraded":false,"error":"server: point dim 1 != model dim 3"}` + "\n"},
	} {
		if got := serveRecorded(h, tc.path, tc.ctype, []byte(tc.body)).Body.String(); got != tc.want {
			t.Errorf("POST %s %s: answered %q, want %q", tc.path, tc.body, got, tc.want)
		}
	}
}

// TestNDJSONWindows drives the stream across its window buffer: bodies
// of several windows whose lines outgrow the buffer a window starts
// with, delivered whole and a byte at a time, with blank lines, no final
// newline, and — at the limit — lines as long as a line may be, which
// must be answered one response line per request line, in order.
func TestNDJSONWindows(t *testing.T) {
	cs := newTestCluster(t, 2, 0, Config{})
	h := cs.Handler()
	post := func(body io.Reader) []string {
		t.Helper()
		req := httptest.NewRequest("POST", "/cluster", body)
		req.Header.Set("Content-Type", "application/x-ndjson")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	}
	isError := func(line string) bool { return strings.Contains(line, `"error":`) }

	// 300 lines, every seventh malformed, blank lines between, no final
	// newline: answers line up with requests.
	var body strings.Builder
	for i := 0; i < 300; i++ {
		if i%7 == 3 {
			body.WriteString("{\"x\":[0.5],\"budget\":2}\r\n\n \n")
		} else {
			fmt.Fprintf(&body, "  {\"x\":[0.%d,0.5],\"budget\":2, \"pad\":%q}\n", i+1, strings.Repeat("p", i*3))
		}
	}
	body.WriteString(`{"x":[0.5,0.5]}`)
	for name, rd := range map[string]io.Reader{
		"whole":        strings.NewReader(body.String()),
		"byte by byte": iotest.OneByteReader(strings.NewReader(body.String())),
		"data and EOF": iotest.DataErrReader(strings.NewReader(body.String())),
	} {
		lines := post(rd)
		if len(lines) != 301 {
			t.Fatalf("%s: %d response lines for 301 request lines", name, len(lines))
		}
		for i, line := range lines {
			if isError(line) != (i%7 == 3 && i < 300) {
				t.Fatalf("%s: response %d is %s", name, i, line)
			}
		}
	}

	// A line may be as long as the scanner allows; the lines around it
	// are answered, before and after.
	long := `{"x":[0.5,0.5],"pad":"` + strings.Repeat("p", maxItem-40) + `"}`
	lines := post(strings.NewReader(`{"x":[0.1,0.1]}` + "\n" + long + "\n" + `{"x":[0.2,0.2]}` + "\n" + long + "\n" + `{"x":[0.3]}`))
	if len(lines) != 5 || isError(lines[0]) || isError(lines[1]) || isError(lines[2]) || isError(lines[3]) || !isError(lines[4]) {
		t.Fatalf("around full-buffer lines: %d response lines, %.80q", len(lines), lines)
	}

	// A longer one ends the stream: what came before it is answered, and
	// a terminal error line says the stream was cut.
	lines = post(strings.NewReader(`{"x":[0.1,0.1]}` + "\n" + long + strings.Repeat(" ", 64) + "\n" + `{"x":[0.2,0.2]}` + "\n"))
	if len(lines) != 2 || isError(lines[0]) || !strings.Contains(lines[1], "request stream: bufio.Scanner: token too long") {
		t.Fatalf("over-long line: %.120q", lines)
	}

	// So does a body that breaks off: the partial last line is answered
	// like any line, then the error.
	broken := io.MultiReader(strings.NewReader(`{"x":[0.1,0.1]}`+"\n"+`{"x":[0.2,`), iotest.ErrReader(io.ErrUnexpectedEOF))
	lines = post(broken)
	if len(lines) != 3 || isError(lines[0]) || !isError(lines[1]) || !strings.Contains(lines[2], "request stream: unexpected EOF") {
		t.Fatalf("broken body: %q", lines)
	}
}

// BenchmarkServerClusterNDJSON is the in-process twin of the repo
// benchmark's cluster_stream write: one op is a 64-line /cluster NDJSON
// body through Handler().ServeHTTP on a recorder, with a decay tick
// every 32 bodies. allocs/op over 64 is the per-object cost of serving:
// the ingest's own plus whatever the HTTP and wire layer adds per line.
func BenchmarkServerClusterNDJSON(b *testing.B) {
	cs, bodies := clusterStream(b, 20000, 256)
	h := cs.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveRecorded(h, "/cluster", "application/x-ndjson", bodies[i%len(bodies)]); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if i%32 == 31 {
			cs.AdvanceDecay()
		}
	}
}

// BenchmarkServerMicroClusters is the in-process twin of the repo
// benchmark's cluster_stream read: one op is GET /microclusters?minw=0.5
// through Handler().ServeHTTP over the 20,000-object model, answered
// into a writer that discards the body. body-bytes/op is the answer's
// length.
func BenchmarkServerMicroClusters(b *testing.B) {
	cs, _ := clusterStream(b, 20000, 0)
	h := cs.Handler()
	w := &discardWriter{header: make(http.Header)}
	req := httptest.NewRequest("GET", "/microclusters?minw=0.5", nil)
	serveDiscarded(h, w, req) // the first read builds the spare set
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if serveDiscarded(h, w, req); w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	b.ReportMetric(float64(w.n), "body-bytes/op")
}
