package proxy

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bayestree/internal/clustree"
	"bayestree/internal/server"
)

// TestProxyRefusesDecayedClusterUnion pins the λ rule for cluster reads:
// two decaying groups fade on clocks of their own (each ticks on its own
// inserts — unequal here), so their union is refused with a 501 naming
// the decaying group on both cluster routes; one decaying group is
// served, byte for byte as its backend answers.
func TestProxyRefusesDecayedClusterUnion(t *testing.T) {
	ccfg := clustree.DefaultConfig(3)
	ccfg.Lambda = 0.004
	rng := rand.New(rand.NewSource(5))
	var groups []Group
	for _, n := range []int{300, 100} {
		s, err := server.NewCluster(ccfg, 1, server.Config{}, server.ClusterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			x, _ := genPoint(rng)
			if _, err := s.Insert(x, 6); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		groups = append(groups, Group{Primary: ts.URL})
	}

	serve := func(groups []Group) string {
		p, err := New(Config{Groups: groups})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		p.ProbeNow()
		pts := httptest.NewServer(p.Handler())
		t.Cleanup(pts.Close)
		return pts.URL
	}

	two := serve(groups)
	for _, path := range []string{"/microclusters", "/macroclusters"} {
		status, body := getBytes(t, two+path)
		if status != http.StatusNotImplemented || !strings.Contains(string(body), "group 0 decays") {
			t.Errorf("%s over two decaying groups: status %d %s; want 501 naming group 0", path, status, body)
		}
	}

	one := serve(groups[:1])
	for _, path := range []string{"/microclusters", "/microclusters?minw=2", "/macroclusters", "/macroclusters?eps=1.5&minw=3"} {
		st1, got := getBytes(t, one+path)
		st2, want := getBytes(t, groups[0].Primary+path)
		if st1 != http.StatusOK || st2 != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s over one decaying group: status %d, backend %d\nproxy:   %s\nbackend: %s", path, st1, st2, got, want)
		}
	}
}
