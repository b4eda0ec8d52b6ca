package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"bayestree/internal/kernels"
)

// pinTree builds a three-class tree of 240 inserted points in three
// dimensions; a decayed one is swept once between its two halves and
// left with one epoch outstanding, so its leaves are weighted.
func pinTree(t *testing.T, k kernels.Kernel, mopts MultiOptions, decayed bool) *MultiTree {
	t.Helper()
	cfg := smallConfig(3)
	cfg.Kernel = k
	mt, err := NewMultiTree(cfg, []int{0, 1, 2}, mopts)
	if err != nil {
		t.Fatal(err)
	}
	if decayed {
		if err := mt.EnableDecay(DecayOptions{Lambda: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 240; i++ {
		y := i % 3
		x := []float64{float64(y) + rng.NormFloat64(), rng.NormFloat64() * float64(1+y), rng.Float64()}
		if err := mt.Insert(x, y); err != nil {
			t.Fatal(err)
		}
		if decayed && i%40 == 39 {
			mt.AdvanceEpoch(1)
			if i == 119 {
				mt.DecaySweep()
			}
		}
	}
	return mt
}

// TestMultiQueryStepsPinned pins the MultiQuery bit for bit: per
// variance mode, kernel and decay state, a sha256 over the float64 bits
// of the per-class scores and the node count after every step of
// exhaustive queries, under every descent strategy and priority. The
// queries include one with a missing value. A change to the tree, the
// mirror, the kernels or the descent must leave these unchanged.
func TestMultiQueryStepsPinned(t *testing.T) {
	want := map[string]string{
		"plain/gaussian":              "a88f40abf9ac6931f2234385316210491440d559f8d933fa3ffe20f90b0d8365",
		"plain/gaussian/decayed":      "9de7838012b1be66308515702dd2222a2e3171f26a5b407270379293546ddf4f",
		"plain/epanechnikov":          "9058d65224b88d9445e71b19801db0660bc0fd0696c511d80de60bac302fb079",
		"plain/epanechnikov/decayed":  "f5df9035a03a7f0028e62f011780d7355826d81c69ca6176f733c454cfbe9956",
		"pooled/gaussian":             "3ee65e48cdc4ea04ec9abacf7ec4632e801153b81b11391553b3ab505ac20183",
		"pooled/gaussian/decayed":     "35a7fe8ab50e7307b58a2e225b9d2e61c2d982a2bee07b816eff6c8a695c4054",
		"pooled/epanechnikov":         "fe3f6eaf28351fd9370954725795e2cd2a84cecc870139a8c5d305a3af33b8c9",
		"pooled/epanechnikov/decayed": "0888d5933c735b88721bbdece567240ca79ba1a0e897d19f0dd32cb0a4d99651",
	}
	queries := [][]float64{{0.1, 0.2, 0.5}, {1.4, -2, 0.9}, {2.2, 3, 0.1}, {1, math.NaN(), 0.5}, {9, 9, 9}}
	strategies, priorities := soaVariants()
	for _, mode := range []struct {
		name  string
		mopts MultiOptions
	}{{"plain", MultiOptions{}}, {"pooled", MultiOptions{PooledVariance: true}}} {
		for _, k := range []kernels.Kernel{kernels.Gaussian{}, kernels.Epanechnikov{}} {
			for _, decayed := range []bool{false, true} {
				mt := pinTree(t, k, mode.mopts, decayed)
				h := sha256.New()
				var word [8]byte
				put := func(bits uint64) {
					binary.LittleEndian.PutUint64(word[:], bits)
					h.Write(word[:])
				}
				for _, s := range strategies {
					for _, p := range priorities {
						for _, x := range queries {
							q, err := mt.NewQuery(x, ClassifierOptions{Strategy: s, Priority: p})
							if err != nil {
								t.Fatal(err)
							}
							for step := true; step; step = q.Step() {
								for _, v := range q.Scores() {
									put(math.Float64bits(v))
								}
								put(uint64(q.NodesRead()))
							}
							q.Close()
						}
					}
				}
				key := mode.name + "/" + k.Name()
				if decayed {
					key += "/decayed"
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
					t.Errorf("%s: sha256 %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
