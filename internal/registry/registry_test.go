package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bayestree/internal/persist"
	"bayestree/internal/server"
)

// testDefaults is the tenant shape tests create on first write: the
// same 3-dim, 3-label space the loadgen workload uses.
func testDefaults() TenantConfig {
	return TenantConfig{Dim: 3, Labels: []int{0, 1, 2}}
}

func openTestRegistry(t *testing.T, dir string, mod func(*Options)) *Registry[*server.Server] {
	t.Helper()
	opts := Options{Dir: dir, Defaults: testDefaults()}
	if mod != nil {
		mod(&opts)
	}
	r, err := Open(opts, ClassifyBackend())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// testPoint is a deterministic labeled observation: three clusters on
// a line, matching the label set of testDefaults.
func testPoint(rng *rand.Rand) ([]float64, int) {
	label := rng.Intn(3)
	c := float64(label) * 4
	return []float64{c + rng.NormFloat64(), c + rng.NormFloat64(), c + rng.NormFloat64()}, label
}

func mustPost(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

func TestCreateOnFirstWriteAndRouting(t *testing.T) {
	r := openTestRegistry(t, t.TempDir(), nil)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	// First write creates the tenant.
	code, body := mustPost(t, ts.URL+"/t/alpha/insert", `{"x":[0,0,0],"label":0}`)
	if code != http.StatusOK {
		t.Fatalf("create-on-first-write insert: %d %s", code, body)
	}
	if got := r.Tenants(); got != 1 {
		t.Fatalf("tenants after first write: %d", got)
	}
	code, body = mustPost(t, ts.URL+"/t/alpha/classify", `{"x":[0,0,0]}`)
	if code != http.StatusOK {
		t.Fatalf("classify on created tenant: %d %s", code, body)
	}

	// Reads do not create: unknown tenant is 404.
	code, _ = mustPost(t, ts.URL+"/t/ghost/classify", `{"x":[0,0,0]}`)
	if code != http.StatusNotFound {
		t.Fatalf("classify on unknown tenant: %d, want 404", code)
	}
	// Invalid names are 400.
	code, _ = mustPost(t, ts.URL+"/t/bad*name/insert", `{"x":[0,0,0],"label":0}`)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid tenant name: %d, want 400", code)
	}

	// PUT creates explicitly (201), re-PUT is idempotent (200).
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/t/beta", strings.NewReader(`{"shards":2}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT new tenant: %d, want 201", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/t/beta", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT existing tenant: %d, want 200", resp.StatusCode)
	}

	// Tenant info and registry stats.
	resp, err = http.Get(ts.URL + "/t/beta")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Tenant   string `json:"tenant"`
		Resident bool   `json:"resident"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Tenant != "beta" || !info.Resident {
		t.Fatalf("tenant info: %+v", info)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Workload != "classify" || st.Tenants != 2 || st.Resident != 2 {
		t.Fatalf("registry stats: %+v", st)
	}
	// Per-tenant stats delegate to the tenant's own endpoint.
	resp, err = http.Get(ts.URL + "/t/alpha/stats")
	if err != nil {
		t.Fatal(err)
	}
	var tst server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&tst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tst.Observations != 1 {
		t.Fatalf("tenant stats observations: %+v", tst)
	}
}

// TestLegacyDefaultAlias pins the compatibility contract: the
// single-tenant routes keep working, aliased onto the default tenant,
// and X-Tenant reroutes them without touching the path.
func TestLegacyDefaultAlias(t *testing.T) {
	r := openTestRegistry(t, t.TempDir(), nil)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	code, body := mustPost(t, ts.URL+"/insert", `{"x":[1,1,1],"label":1}`)
	if code != http.StatusOK {
		t.Fatalf("legacy insert: %d %s", code, body)
	}
	code, body = mustPost(t, ts.URL+"/classify", `{"x":[1,1,1]}`)
	if code != http.StatusOK {
		t.Fatalf("legacy classify: %d %s", code, body)
	}
	if got := r.Tenants(); got != 1 {
		t.Fatalf("tenants after legacy writes: %d", got)
	}

	// X-Tenant reroutes the legacy path to a named tenant.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/insert", strings.NewReader(`{"x":[1,1,1],"label":1}`))
	req.Header.Set("X-Tenant", "sensor-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("X-Tenant insert: %d", resp.StatusCode)
	}
	if got := r.Tenants(); got != 2 {
		t.Fatalf("tenants after X-Tenant write: %d", got)
	}
}

// TestEvictReloadDigitIdentical is the paging-safety property from the
// issue: an evicted-then-reloaded tenant must answer digit-identically
// to a never-evicted twin fed the same observations. Snapshot bytes
// are compared, which subsumes every query answer.
func TestEvictReloadDigitIdentical(t *testing.T) {
	r := openTestRegistry(t, t.TempDir(), nil)

	rng := rand.New(rand.NewSource(42))
	type obs struct {
		x     []float64
		label int
	}
	feed := make([]obs, 400)
	for i := range feed {
		x, label := testPoint(rng)
		feed[i] = obs{x, label}
	}
	for _, name := range []string{"evicted", "twin"} {
		err := r.With(name, true, func(s *server.Server) error {
			for _, o := range feed {
				if err := s.Insert(o.x, o.label); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	if err := r.Evict("evicted"); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Evictions; got != 1 {
		t.Fatalf("evictions: %d", got)
	}

	snap := func(name string) []byte {
		var buf bytes.Buffer
		if err := r.With(name, false, func(s *server.Server) error {
			return s.WriteSnapshot(&buf)
		}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got, want := snap("evicted"), snap("twin")
	if !bytes.Equal(got, want) {
		t.Fatalf("evicted-then-reloaded tenant diverged from its twin: %d vs %d snapshot bytes", len(got), len(want))
	}
	if r.Stats().ColdLoads < 3 {
		t.Fatalf("cold loads: %+v", r.Stats())
	}

	// And the reloaded tenant answers queries identically.
	var a, b server.Result
	if err := r.With("evicted", false, func(s *server.Server) error {
		var err error
		a, err = s.Classify(feed[0].x, 64)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.With("twin", false, func(s *server.Server) error {
		var err error
		b, err = s.Classify(feed[0].x, 64)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("classify diverged: %+v vs %+v", a, b)
	}
}

// TestEvictReloadDecayDigitIdentical: with decay on, a tenant evicted
// mid-stream and reloaded keeps its shards' write counts in its
// manifest, so it crosses every later decay boundary at the write its
// never-evicted twin does, and the two end byte for byte alike.
func TestEvictReloadDecayDigitIdentical(t *testing.T) {
	r := openTestRegistry(t, t.TempDir(), func(o *Options) {
		o.Defaults.Shards = 2
		o.Defaults.DecayLambda = 0.5
		o.Defaults.DecayMinWeight = 0.05
		o.Defaults.DecayEvery = 32
	})
	rng := rand.New(rand.NewSource(43))
	xs, labels := make([][]float64, 900), make([]int, 900)
	for i := range xs {
		xs[i], labels[i] = testPoint(rng)
	}
	feed := func(name string, from, to int) {
		t.Helper()
		if err := r.With(name, true, func(s *server.Server) error {
			for i := from; i < to; i++ {
				if err := s.Insert(xs[i], labels[i]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	feed("twin", 0, len(xs))
	for _, cut := range [][2]int{{0, 333}, {333, 700}, {700, len(xs)}} {
		feed("evicted", cut[0], cut[1])
		if err := r.Evict("evicted"); err != nil {
			t.Fatal(err)
		}
	}
	var snaps [2]bytes.Buffer
	var epochs [2]int64
	for i, name := range []string{"evicted", "twin"} {
		if err := r.With(name, false, func(s *server.Server) error {
			epochs[i] = s.Stats().DecayEpoch
			return s.WriteSnapshot(&snaps[i])
		}); err != nil {
			t.Fatal(err)
		}
	}
	if epochs[1] < 10 {
		t.Fatalf("the twin reached epoch %d, want ≥ 10", epochs[1])
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		t.Fatalf("a decaying tenant evicted twice diverged from its twin: %d vs %d snapshot bytes (epochs %d vs %d)",
			snaps[0].Len(), snaps[1].Len(), epochs[0], epochs[1])
	}
}

// TestLRUPagingCap drives more tenants than the resident cap allows
// and checks the registry pages the cold tail out, reloading on touch.
func TestLRUPagingCap(t *testing.T) {
	r := openTestRegistry(t, t.TempDir(), func(o *Options) { o.MaxResident = 2 })

	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("tn%02d", i)
		if err := r.With(name, true, func(s *server.Server) error {
			return s.Insert([]float64{float64(i), 0, 0}, i%3)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Resident(); got > 2 {
		t.Fatalf("resident %d exceeds cap 2", got)
	}
	if got := r.Tenants(); got != 5 {
		t.Fatalf("tenants: %d", got)
	}
	st := r.Stats()
	if st.Evictions < 3 {
		t.Fatalf("expected >=3 evictions, got %+v", st)
	}

	// Touching an evicted tenant reloads it with its data intact.
	loadsBefore := st.ColdLoads
	if err := r.With("tn00", false, func(s *server.Server) error {
		if s.Len() != 1 {
			return fmt.Errorf("reloaded tenant has %d observations", s.Len())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().ColdLoads; got != loadsBefore+1 {
		t.Fatalf("cold loads: %d -> %d", loadsBefore, got)
	}
}

// TestRestartRecoversPopulation closes a populated registry and
// reopens the root: the tenants directory must restore the full tenant
// population without loading any model, and a touched tenant must come
// back with its data.
func TestRestartRecoversPopulation(t *testing.T) {
	dir := t.TempDir()
	r := openTestRegistry(t, dir, nil)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("tn%02d", i)
		if err := r.With(name, true, func(s *server.Server) error {
			return s.Insert([]float64{float64(i), 0, 0}, i%3)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openTestRegistry(t, dir, nil)
	if got := r2.Tenants(); got != 4 {
		t.Fatalf("tenants after restart: %d", got)
	}
	if got := r2.Resident(); got != 0 {
		t.Fatalf("restart loaded %d models eagerly", got)
	}
	if err := r2.With("tn02", false, func(s *server.Server) error {
		if s.Len() != 1 {
			return fmt.Errorf("recovered tenant has %d observations", s.Len())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadMismatchRefused: a root written by one workload refuses
// to open under the other backend.
func TestWorkloadMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	r := openTestRegistry(t, dir, nil)
	if err := r.With("a", true, func(s *server.Server) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}, ClusterBackend()); err == nil {
		t.Fatal("cluster backend opened a classify root")
	}
}

// TestSecondWriterRefused: the root flock makes a second registry on
// the same directory fail fast.
func TestSecondWriterRefused(t *testing.T) {
	dir := t.TempDir()
	openTestRegistry(t, dir, nil)
	if _, err := Open(Options{Dir: dir, Defaults: testDefaults()}, ClassifyBackend()); err == nil {
		t.Fatal("second registry on one root did not fail")
	}
}

func TestValidTenantName(t *testing.T) {
	for _, ok := range []string{"a", "sensor-7", "user_42", "A.b-C_9", strings.Repeat("x", 64)} {
		if !ValidTenantName(ok) {
			t.Errorf("ValidTenantName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".", "..", ".hidden", "a/b", "a b", "a*b", strings.Repeat("x", 65)} {
		if ValidTenantName(bad) {
			t.Errorf("ValidTenantName(%q) = true", bad)
		}
	}
}

// TestDrainingRejects: a draining registry answers 503 and fails
// readiness in the uniform not-ready shape; /healthz stays alive.
func TestDrainingRejects(t *testing.T) {
	r := openTestRegistry(t, t.TempDir(), nil)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	r.SetDraining(true)
	code, _ := mustPost(t, ts.URL+"/t/a/insert", `{"x":[0,0,0],"label":0}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining insert: %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	// The uniform not-ready shape every tier answers: plain text naming
	// the reason, with Retry-After.
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" ||
		resp.Header.Get("Content-Type") != "text/plain; charset=utf-8" || body.String() != "draining\n" {
		t.Fatalf("draining readyz: %d (Retry-After %q, Content-Type %q) %q, want the plain-text 503 \"draining\" with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get("Content-Type"), body.String())
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz: %d", resp.StatusCode)
	}
	r.SetDraining(false)
	code, _ = mustPost(t, ts.URL+"/t/a/insert", `{"x":[0,0,0],"label":0}`)
	if code != http.StatusOK {
		t.Fatalf("insert after undrain: %d", code)
	}
}

// TestPopulationIsTheDirectory: the tenants directory is the only record
// of the population. A tenant is a validly named subdirectory holding a
// TENANT.json, whatever the REGISTRY file says; REGISTRY is a workload
// stamp that tenant churn never rewrites; and GET /t/{tenant} reports
// the generation the tenant's own MANIFEST commits.
func TestPopulationIsTheDirectory(t *testing.T) {
	dir := t.TempDir()
	stampPath := filepath.Join(dir, stampName)
	r := openTestRegistry(t, dir, nil)
	stamp, err := os.ReadFile(stampPath)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(when string) {
		t.Helper()
		if now, err := os.ReadFile(stampPath); err != nil || !bytes.Equal(now, stamp) {
			t.Fatalf("REGISTRY changed by %s: %q -> %q (%v)", when, stamp, now, err)
		}
	}
	for _, name := range []string{"a", "b"} {
		if err := r.With(name, true, func(s *server.Server) error { return s.Insert([]float64{1, 1, 1}, 1) }); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("creating tenants")
	if err := r.Evict("a"); err != nil {
		t.Fatal(err)
	}
	unchanged("an eviction")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	unchanged("a close")

	// A REGISTRY in the format that listed the population: a listed
	// tenant with no directory is not a tenant, and a listed generation
	// is not the one GET reports.
	legacy := `{"workload":"classify","tenants":[{"name":"a","generation":99},{"name":"b","generation":0},{"name":"ghost","generation":0}]}`
	if err := os.WriteFile(stampPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	// A directory holding a TENANT.json that no list names is a tenant;
	// one without it, or with an invalid name, is not.
	tenants := filepath.Join(dir, tenantsSubdir)
	for _, d := range []string{"stray", "debris", ".hidden"} {
		if err := os.MkdirAll(filepath.Join(tenants, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	config := []byte(`{"dim":3,"labels":[0,1,2],"shards":1}`)
	for _, d := range []string{"stray", ".hidden"} {
		if err := os.WriteFile(filepath.Join(tenants, d, tenantConfigName), config, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r2 := openTestRegistry(t, dir, nil)
	if got := r2.Tenants(); got != 3 {
		t.Fatalf("tenants after reopen: %d, want 3 (a, b, stray)", got)
	}
	for _, name := range []string{"ghost", "debris"} {
		if err := r2.With(name, false, func(*server.Server) error { return nil }); !errors.Is(err, ErrUnknownTenant) {
			t.Fatalf("%s: %v, want ErrUnknownTenant", name, err)
		}
	}
	if err := r2.With("stray", false, func(s *server.Server) error { return s.Insert([]float64{0, 0, 0}, 0) }); err != nil {
		t.Fatalf("the stray tenant does not serve: %v", err)
	}

	ts := httptest.NewServer(r2.Handler())
	defer ts.Close()
	info := func(name string) {
		t.Helper()
		m, _, err := persist.LoadManifest(filepath.Join(tenants, name))
		if err != nil || m.Generation == 0 {
			t.Fatalf("%s: manifest generation %d (%v)", name, m.Generation, err)
		}
		resp, err := http.Get(ts.URL + "/t/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Resident   bool   `json:"resident"`
			Generation uint64 `json:"generation"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Resident || got.Generation != m.Generation {
			t.Fatalf("GET /t/%s: %+v, want cold at the MANIFEST's generation %d", name, got, m.Generation)
		}
	}
	info("a") // never loaded by this registry: the stale list said 99
	if err := r2.Evict("stray"); err != nil {
		t.Fatal(err)
	}
	info("stray")
	resp, err := http.Get(ts.URL + "/t/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /t/ghost: %d, want 404", resp.StatusCode)
	}
}

// TestFailedCreateLeavesNoTenant: a create whose open fails — here on
// a damaged MANIFEST already in the tenant's directory — removes the
// TENANT.json it wrote, so the directory holds no tenant now or after a
// restart, and a later create over a clean directory succeeds.
func TestFailedCreateLeavesNoTenant(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Options{Dir: dir, Defaults: testDefaults()}, ClassifyBackend())
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, tenantsSubdir, "x", persist.ManifestName)
	if err := os.MkdirAll(filepath.Dir(manifest), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("x", TenantConfig{}); err == nil {
		t.Fatal("a tenant over a damaged MANIFEST was created")
	}
	if got := r.Tenants(); got != 0 {
		t.Fatalf("tenants after a failed create: %d", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	r2 := openTestRegistry(t, dir, nil)
	if got := r2.Tenants(); got != 0 {
		t.Fatalf("tenants after a failed create and a restart: %d", got)
	}
	if created, err := r2.Create("x", TenantConfig{Labels: []int{0, 1}}); err != nil || !created {
		t.Fatalf("create after a failed one: %v, %v", created, err)
	}
}

// TestUnopenableConfigIsClientError: a create whose resolved config no
// tenant can be opened with answers 400 without Retry-After — a retry
// cannot succeed — writes no TENANT.json, and names the fault; a first
// write under registry defaults without a dimensionality is refused the
// same way.
func TestUnopenableConfigIsClientError(t *testing.T) {
	dir := t.TempDir()
	r := openTestRegistry(t, dir, nil)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	for body, want := range map[string]string{
		`{"shards":-1}`:    "tenant shards -1",
		`{"dim":-2}`:       "tenant dim -2",
		`{"labels":[1,1]}`: "tenant label 1 repeated",
		`{"labels":[1]}`:   "at least two labels",
		`{"decay_lambda":1,"decay_min_weight":2}`: "MinWeight",
	} {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/t/bad", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Retry-After") != "" || !strings.Contains(msg.String(), want) {
			t.Errorf("PUT %s: %d (Retry-After %q) %q, want 400 without Retry-After naming %q",
				body, resp.StatusCode, resp.Header.Get("Retry-After"), msg.String(), want)
		}
		if _, err := os.Stat(filepath.Join(dir, tenantsSubdir, "bad", tenantConfigName)); !os.IsNotExist(err) {
			t.Errorf("PUT %s left a TENANT.json (%v)", body, err)
		}
	}
	if got := r.Tenants(); got != 0 {
		t.Fatalf("tenants after refused creates: %d", got)
	}

	undimmed := openTestRegistry(t, t.TempDir(), func(o *Options) { o.Defaults.Dim = 0 })
	ts2 := httptest.NewServer(undimmed.Handler())
	defer ts2.Close()
	resp, err := http.Post(ts2.URL+"/t/a/insert", "application/json", strings.NewReader(`{"x":[0,0,0],"label":0}`))
	if err != nil {
		t.Fatal(err)
	}
	var msg bytes.Buffer
	msg.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Retry-After") != "" || !strings.Contains(msg.String(), "tenant dim unset") {
		t.Fatalf("first write without a default dim: %d (Retry-After %q) %q, want 400 naming the unset dim",
			resp.StatusCode, resp.Header.Get("Retry-After"), msg.String())
	}
}

// TestDrainFailureKeepsTenantResident: Close pages tenants out through
// the eviction path, so a tenant whose drain checkpoint fails keeps its
// model in memory, and Close reports the failure.
func TestDrainFailureKeepsTenantResident(t *testing.T) {
	dir := t.TempDir()
	r := openTestRegistry(t, dir, nil)
	for _, name := range []string{"ok", "lost"} {
		if err := r.With(name, true, func(s *server.Server) error { return s.Insert([]float64{2, 2, 2}, 2) }); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint has nowhere to write.
	if err := os.RemoveAll(r.tenantDir("lost")); err != nil {
		t.Fatal(err)
	}
	err := r.Close()
	if err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("close: %v, want the failed drain of tenant lost", err)
	}
	if st := r.Stats(); st.Resident != 1 || st.EvictErrors != 1 || st.Evictions != 1 {
		t.Fatalf("after a failed drain: %+v, want the failed tenant resident", st)
	}
}

// TestResidentBytesCap: with MaxResidentBytes between one and two large
// tenants' footprints, the resident set is bounded by bytes, not by the
// count cap — two large tenants are never resident together while small
// ones share the budget — and eviction never leaves no tenant resident,
// even under a cap smaller than one tenant.
func TestResidentBytesCap(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	feed := func(n int) func(*server.Server) error {
		return func(s *server.Server) error {
			for s.Len() < n {
				x, label := testPoint(rng)
				if err := s.Insert(x, label); err != nil {
					return err
				}
			}
			return nil
		}
	}
	bigs, smalls := []string{"big0", "big1", "big2"}, []string{"s0", "s1", "s2"}
	r := openTestRegistry(t, dir, nil)
	var big, small int64
	for _, name := range append(append([]string(nil), bigs...), smalls...) {
		n, size := 200, &big
		if name[0] == 's' {
			n, size = 10, &small
		}
		if err := r.With(name, true, feed(n)); err != nil {
			t.Fatal(err)
		}
		// Measure the footprint a reload has, which is what the cap sees.
		if err := r.Evict(name); err != nil {
			t.Fatal(err)
		}
		if err := r.With(name, false, func(s *server.Server) error {
			*size = max(*size, s.ApproxBytes())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	limit := 3 * big / 2
	if big+int64(len(smalls))*small > limit {
		t.Fatalf("sizes do not fit the test: large %d, small %d bytes", big, small)
	}

	r = openTestRegistry(t, dir, func(o *Options) { o.MaxResidentBytes = limit })
	order := []string{"big0", "s0", "s1", "big1", "s2", "s0", "big2", "big0", "s1", "s2", "big1"}
	most := 0
	for _, name := range order {
		if err := r.With(name, false, func(*server.Server) error { return nil }); err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		if st.Resident < 1 || (st.Resident > 1 && st.ResidentBytes > limit) {
			t.Fatalf("after touching %s: %d resident, %d bytes against a cap of %d", name, st.Resident, st.ResidentBytes, limit)
		}
		if st.ResidentBytes >= 2*big {
			t.Fatalf("after touching %s: two large tenants resident (%d bytes)", name, st.ResidentBytes)
		}
		most = max(most, st.Resident)
	}
	// The count cap (DefaultMaxResident) exceeds the population, so
	// every eviction here is the byte cap's.
	if st := r.Stats(); most < 3 || st.Evictions == 0 {
		t.Fatalf("the byte cap did not decide residency: at most %d resident, %+v", most, st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Under a cap smaller than any large tenant, one stays resident.
	r = openTestRegistry(t, dir, func(o *Options) { o.MaxResidentBytes = big / 2 })
	for _, name := range bigs {
		if err := r.With(name, false, func(*server.Server) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if got := r.Resident(); got != 1 {
			t.Fatalf("after touching %s under a cap below one tenant: %d resident, want 1", name, got)
		}
	}
}
