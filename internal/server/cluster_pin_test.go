package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
)

// TestClusterWriteHistoryPinned pins the clustering workload's write
// arithmetic bit for bit: a history of writes only — inserts at budgets
// 0–4 (so objects park and hitchhike), explicit AdvanceDecay sweeps that
// prune below a floor, the store off so no capture reads the model — is
// read once at its end, then warm-restarted from its snapshot at another
// λ (SetLambda) and written and read again. Each read is a sha256 over
// the snapshot bytes, every micro-cluster's weight, LS and SS bits and
// the /stats weight. A change to how the tree decays, merges or reads
// must leave both digests.
func TestClusterWriteHistoryPinned(t *testing.T) {
	const want1 = "1f330cebb116cd754c0bed7aae66fbd6215d2a73011d964c5ba508f4347f8c2b"
	const want2 = "106d708d5ca6dc2254a1701b4f8533de35f01ee7afef16d1ce5d396647d0f43d"
	copts := ClusterOptions{SnapshotEvery: -1}
	ccfg := clustree.Config{Dim: 3, MaxFanout: 4, Lambda: 0.004}
	cfg := Config{Decay: core.DecayOptions{Lambda: 0.004, MinWeight: 0.3}}
	rng := rand.New(rand.NewSource(42))
	write := func(s *ClusterServer, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			src := float64(rng.Intn(4))
			drift := float64(i) / float64(n)
			x := []float64{
				0.2*src + 0.3*drift + 0.05*rng.NormFloat64(),
				0.9 - 0.2*src + 0.05*rng.NormFloat64(),
				rng.Float64(),
			}
			if _, err := s.Insert(x, i%5); err != nil {
				t.Fatal(err)
			}
			if i%997 == 996 {
				s.AdvanceDecay()
			}
		}
	}
	digest := func(s *ClusterServer) (string, []byte) {
		t.Helper()
		snap := snapshotBytes(t, s)
		h := sha256.New()
		h.Write(snap)
		var word [8]byte
		put := func(v float64) {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
		for _, mc := range s.MicroClusters(0) {
			put(mc.Weight)
			for i := range mc.CF.LS {
				put(mc.CF.LS[i])
				put(mc.CF.SS[i])
			}
		}
		put(s.Stats().Weight)
		return hex.EncodeToString(h.Sum(nil)), snap
	}

	a, err := NewCluster(ccfg, 3, cfg, copts)
	if err != nil {
		t.Fatal(err)
	}
	write(a, 6000)
	got1, snap := digest(a)
	if got1 != want1 {
		t.Errorf("write history: sha256 %s, want %s", got1, want1)
	}
	if st := a.Stats(); st.Parked == 0 || st.PointsPruned == 0 {
		t.Fatalf("history neither parks nor prunes: parked %d, pruned %d", st.Parked, st.PointsPruned)
	}

	cfg.Decay.Lambda = 0.006
	b, err := ClusterFromSnapshot(bytes.NewReader(snap), cfg, copts)
	if err != nil {
		t.Fatal(err)
	}
	write(b, 3000)
	if got2, _ := digest(b); got2 != want2 {
		t.Errorf("warm restart at another λ: sha256 %s, want %s", got2, want2)
	}
}
