package proxy

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"bayestree/internal/server"
	"bayestree/internal/wire"
)

// staticTransport answers every request with one fixed 200 body, so a
// fuzzed /stats body reaches the prober without a listener.
type staticTransport []byte

func (s staticTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
		Body: io.NopCloser(bytes.NewReader(s)),
	}, nil
}

// FuzzProbeStats holds the prober against a broken or hostile backend:
// whatever two groups' /stats bodies say, the budget split over them
// gives each group a share in [0, requested], and the shares add up to
// exactly requested (to 0 when no group has observations) — no count can
// make a proxied read cost more than it was granted. A body over the
// probe limit leaves its backend unroutable; pad appends a megabyte of
// whitespace to the second body, a tail that would still parse if the
// prober read only a prefix.
func FuzzProbeStats(f *testing.F) {
	const ok = `{"role":"primary","observations":100}`
	for _, s := range []struct {
		a, b   string
		budget int
		pad    bool
	}{
		{ok, ok, 32, false},
		{`{"role":"primary","observations":-5}`, ok, 32, false},
		{`{"role":"primary","observations":9223372036854775807}`, ok, 32, false},
		{`{"role":"primary","observations":9007199254740993}`, `{"role":"primary","observations":1}`, -1, false},
		{`{"role":"primary","observations":0}`, `{"role":"follower","observations":0}`, 0, false},
		{`{"role":"primary","observations":7}`, `{"role":"primary","observations":3}`, 5, true},
		{`not json`, `{"observations":1.5}`, 32, false},
	} {
		f.Add([]byte(s.a), []byte(s.b), s.budget, s.pad)
	}
	f.Fuzz(func(t *testing.T, a, b []byte, budget int, pad bool) {
		p, err := New(Config{Groups: []Group{{Primary: "http://g0"}, {Primary: "http://g1"}}})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		bodies := [][]byte{a, b}
		if pad {
			bodies[1] = append(bytes.Clone(b), bytes.Repeat([]byte(" "), maxProbeBody)...)
		}
		for i, g := range p.groups {
			g.backends[0].client.Transport = staticTransport(bodies[i])
		}
		p.ProbeNow()
		for i, g := range p.groups {
			if len(bodies[i]) > maxProbeBody && g.backends[0].state().ok {
				t.Fatalf("group %d: a %d-byte /stats body left the backend routable", i, len(bodies[i]))
			}
		}

		requested := server.Config{DefaultBudget: p.cfg.DefaultBudget, MaxBudget: p.cfg.MaxBudget}.
			ResolveBudget(wire.ClassifyRequest{Budget: budget})
		sizes, budgets := p.split(requested)
		sum, want := 0, 0
		for i, share := range budgets {
			if share < 0 || share > requested {
				t.Fatalf("sizes %v: group %d's share %d is outside [0, %d]", sizes, i, share, requested)
			}
			sum += share
			if sizes[i] > 0 {
				want = requested
			}
		}
		if sum != want {
			t.Fatalf("sizes %v: shares %v add up to %d, want %d", sizes, budgets, sum, want)
		}
	})
}
