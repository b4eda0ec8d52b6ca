package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bayestree/internal/replica"
	"bayestree/internal/server"
)

// FuzzTenantConfig: whatever bytes stand in TENANT.json, the load path
// — loadTenantConfig, the registry defaults, check — refuses them or
// resolves a config that is its own defaults' fixed point, round-trips
// through the file the registry writes, and passes check again. Among
// the seeds, the retired decay_every_ms key is one that must be refused.
func FuzzTenantConfig(f *testing.F) {
	f.Add([]byte(`{"dim":3,"labels":[0,1,2],"shards":1}`))
	f.Add([]byte(`{"dim":3,"labels":[0,1,2],"shards":2,"nodes_per_second":1500.5,"default_budget":8,"max_budget":64,"decay_lambda":0.01,"decay_min_weight":0.2,"decay_every_ms":50}`))
	f.Add([]byte(`{"dim":3,"labels":[0,1,2],"shards":2,"nodes_per_second":1500.5,"default_budget":8,"max_budget":64,"decay_lambda":0.01,"decay_min_weight":0.2,"decay_every":50}`))
	f.Add([]byte(`{"dim":3,"labels":[0,1,2],"decay_lambda":0.01,"decay_every":-1}`))
	f.Add([]byte(`{"dim":3,"labels":[0,1,2]} {"dim":4}`))
	f.Add([]byte(`{"dim":-3}`))
	f.Add([]byte(`{"labels":[1,1]}`))
	f.Add([]byte(`{"shards":-1,"decay_min_weight":2}`))
	f.Add([]byte(`{"dim":3,"labels":[0,1`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	dir := f.TempDir()
	path, again := filepath.Join(dir, tenantConfigName), filepath.Join(dir, "again.json")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		tc, err := loadTenantConfig(path)
		if err != nil {
			return
		}
		for _, workload := range []string{replica.WorkloadClassify, replica.WorkloadCluster} {
			defaults := TenantConfig{Dim: 2}
			if workload == replica.WorkloadClassify {
				defaults.Labels = []int{0, 1}
			}
			resolved := tc.withDefaults(defaults)
			if resolved.check(workload) != nil {
				continue
			}
			if back := resolved.withDefaults(defaults); !reflect.DeepEqual(back, resolved) {
				t.Fatalf("%s %q: resolved %+v resolves again to %+v", workload, raw, resolved, back)
			}
			if err := writeJSONFile(again, resolved); err != nil {
				t.Fatal(err)
			}
			back, err := loadTenantConfig(again)
			if err != nil || !reflect.DeepEqual(back.withDefaults(defaults), resolved) {
				t.Fatalf("%s %q: %+v written reads back as %+v (%v)", workload, raw, resolved, back, err)
			}
			if err := back.withDefaults(defaults).check(workload); err != nil {
				t.Fatalf("%s %q: %+v passed check, read back it fails: %v", workload, raw, resolved, err)
			}
		}
	})
}

// FuzzRegistryStamp: a REGISTRY stamp is never rewritten, and it opens
// a root for at most one workload — the one it decodes to. A damaged
// stamp, however it was damaged, refuses the open; the stamp checkStamp
// writes for a workload opens that workload's root.
func FuzzRegistryStamp(f *testing.F) {
	f.Add([]byte(`{"workload":"classify"}`))
	f.Add([]byte(`{"workload":"cluster","tenants":["a","b"]}`))
	f.Add([]byte(`{"workload":"classif`))
	f.Add([]byte(`{"workload":"classify"}{`))
	f.Add([]byte(`{"Workload":"cluster"}`))
	f.Add([]byte(`{"workload":"cluster\u0000"}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	dir := f.TempDir()
	path := filepath.Join(dir, stampName)
	for _, workload := range []string{replica.WorkloadClassify, replica.WorkloadCluster} {
		os.Remove(path)
		if err := checkStamp(dir, workload); err != nil {
			f.Fatal(err)
		}
		written, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if err := checkStamp(dir, workload); err != nil {
			f.Fatalf("the stamp written for %s, %q, is refused: %v", workload, written, err)
		}
		f.Add(written)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var s stamp
		decoded := json.Unmarshal(raw, &s) == nil
		opened := 0
		for _, workload := range []string{replica.WorkloadClassify, replica.WorkloadCluster} {
			if checkStamp(dir, workload) != nil {
				continue
			}
			opened++
			if !decoded || s.Workload != workload {
				t.Fatalf("%q opens a %s root", raw, workload)
			}
		}
		if opened > 1 {
			t.Fatalf("%q opens a root for both workloads", raw)
		}
		if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, raw) {
			t.Fatalf("%q was rewritten as %q (%v)", raw, now, err)
		}
	})
}

// TestTenantConfigStrict: TENANT.json and a PUT /t/{tenant} body are
// read strictly. The retired decay_every_ms, a misspelt key, a negative
// decay_every and a second JSON value are refused, naming what is wrong,
// where a lenient decode would have left the field at its default.
func TestTenantConfigStrict(t *testing.T) {
	dir := t.TempDir()
	r := openTestRegistry(t, dir, nil)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	path := filepath.Join(dir, "probe.json")
	for body, want := range map[string]string{
		`{"dim":3,"decay_lambda":0.1,"decay_every_ms":50}`: "decay_every_ms",
		`{"dim":3,"decay_lamda":0.1}`:                      "decay_lamda",
		`{"dim":3,"decay_lambda":0.1,"decay_every":-5}`:    "decay_every -5",
		`{"dim":3} {"dim":4}`:                              "after the tenant config",
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		tc, err := loadTenantConfig(path)
		if err == nil {
			err = tc.withDefaults(testDefaults()).check(replica.WorkloadClassify)
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("TENANT.json %s: %v, want a refusal naming %q", body, err, want)
		}
		code, answer := mustPut(t, ts.URL+"/t/strict", body)
		if code != http.StatusBadRequest || !strings.Contains(answer, want) {
			t.Errorf("PUT %s: %d %q, want 400 naming %q", body, code, answer, want)
		}
	}
	if code, answer := mustPut(t, ts.URL+"/t/strict", `{"dim":3,"decay_lambda":0.1,"decay_every":50}`); code != http.StatusCreated {
		t.Fatalf("PUT with decay_every: %d %q", code, answer)
	}
}

// mustPut sends body as a PUT to url and returns the status and answer.
func mustPut(t *testing.T, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(answer)
}

// TestDamagedTenantConfigRefusesLoad: a cold tenant whose TENANT.json no
// longer passes check fails its load with ErrInvalidConfig, and the
// file stays for an operator to mend.
func TestDamagedTenantConfigRefusesLoad(t *testing.T) {
	dir := t.TempDir()
	r := openTestRegistry(t, dir, nil)
	insert := func(s *server.Server) error { return s.Insert([]float64{1, 1, 1}, 1) }
	if err := r.With("a", true, insert); err != nil {
		t.Fatal(err)
	}
	if err := r.Evict("a"); err != nil {
		t.Fatal(err)
	}
	config := filepath.Join(dir, tenantsSubdir, "a", tenantConfigName)
	damaged := []byte(`{"dim":3,"labels":[1,1],"shards":1}`)
	if err := os.WriteFile(config, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.With("a", false, insert); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("load of a damaged TENANT.json: %v, want ErrInvalidConfig", err)
	}
	if now, err := os.ReadFile(config); err != nil || !bytes.Equal(now, damaged) {
		t.Fatalf("TENANT.json after the refused load: %q (%v)", now, err)
	}
}
