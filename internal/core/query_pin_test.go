package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// pinTree builds a three-class tree of 240 inserted points in three
// dimensions; a decayed one advances a decay epoch and sweeps it every
// 40 inserts, so its leaves are weighted.
func pinTree(t *testing.T, mopts MultiOptions, decayed bool) *MultiTree {
	t.Helper()
	mt, err := NewMultiTree(smallConfig(3), []int{0, 1, 2}, mopts)
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
			mt.AdvanceDecay()
		}
	}
	return mt
}

// TestMultiQueryStepsPinned pins the MultiQuery bit for bit: per
// variance mode and decay state, a sha256 over the float64 bits
// of the per-class scores and the node count after every step of
// exhaustive queries, under every descent strategy and priority. The
// queries include one with a missing value. A change to the tree, the
// mirror, the kernels or the descent must leave these unchanged.
func TestMultiQueryStepsPinned(t *testing.T) {
	want := map[string]string{
		"plain/gaussian":          "a88f40abf9ac6931f2234385316210491440d559f8d933fa3ffe20f90b0d8365",
		"plain/gaussian/decayed":  "a602b8569912dd153b482571bed6f94c9d2d6e9aa0911a030cb6f11883a2e43e",
		"pooled/gaussian":         "3ee65e48cdc4ea04ec9abacf7ec4632e801153b81b11391553b3ab505ac20183",
		"pooled/gaussian/decayed": "571726b6ab2b76996f45b530c67ccd4acc6f79def4fcc9fbb75f38511ef9e171",
	}
	queries := [][]float64{{0.1, 0.2, 0.5}, {1.4, -2, 0.9}, {2.2, 3, 0.1}, {1, math.NaN(), 0.5}, {9, 9, 9}}
	strategies, priorities := soaVariants()
	for _, mode := range []struct {
		name  string
		mopts MultiOptions
	}{{"plain", MultiOptions{}}, {"pooled", MultiOptions{PooledVariance: true}}} {
		for _, decayed := range []bool{false, true} {
			mt := pinTree(t, mode.mopts, decayed)
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
			key := mode.name + "/gaussian"
			if decayed {
				key += "/decayed"
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
				t.Errorf("%s: sha256 %s, want %s", key, got, want[key])
			}
		}
	}
}
