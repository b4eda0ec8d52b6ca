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
// exhaustive queries, under every descent strategy and priority. Each
// mode has two digests: one over the queries with every dimension
// observed, and one ("/missing") over a query with a missing value,
// whose marginal densities take their own path through the sweep and
// the kernels. A change to the tree, the mirror, the kernels or the
// descent must leave these unchanged.
func TestMultiQueryStepsPinned(t *testing.T) {
	want := map[string]string{
		"plain/gaussian":                  "79b99897c46a94e31eda87a7aa130622fa53e2a9f96349f14fc07ef631f4e993",
		"plain/gaussian/missing":          "ff70155e1cd5b02fda52f4bfacc0de9d1ed785f02362a33676c0cd87bfb2b6c6",
		"plain/gaussian/decayed":          "ae2839baa57ca532c2cff43f0cc436aa3dfdb1b8fa49b1d7c38193e0ff31fd24",
		"plain/gaussian/decayed/missing":  "abe3f6cdb18c7b51bf0e7a5716e7dcbf776988f5a81dcd9d1b6b6d69a989b478",
		"pooled/gaussian":                 "23e710dac9caaf39f891cfdb59c962bb285f0d154e47c862892196ae66f60d7c",
		"pooled/gaussian/missing":         "f5a344ce82c412b42e383624bee352c90fb652fdb16df7e828df3e7e2505aa7b",
		"pooled/gaussian/decayed":         "1bd9b2d00c045f4b30a4d543944038f2511b0252fcd093a5c89e409e24c817c5",
		"pooled/gaussian/decayed/missing": "e57ecea85b86421d5db09cb0ecdfbc74b7ad2db3a952135451f74e8ad631e772",
	}
	sets := []struct {
		suffix  string
		queries [][]float64
	}{
		{"", [][]float64{{0.1, 0.2, 0.5}, {1.4, -2, 0.9}, {2.2, 3, 0.1}, {9, 9, 9}}},
		{"/missing", [][]float64{{1, math.NaN(), 0.5}}},
	}
	strategies, priorities := soaVariants()
	for _, mode := range []struct {
		name  string
		mopts MultiOptions
	}{{"plain", MultiOptions{}}, {"pooled", MultiOptions{PooledVariance: true}}} {
		for _, decayed := range []bool{false, true} {
			mt := pinTree(t, mode.mopts, decayed)
			for _, set := range sets {
				h := sha256.New()
				var word [8]byte
				put := func(bits uint64) {
					binary.LittleEndian.PutUint64(word[:], bits)
					h.Write(word[:])
				}
				for _, s := range strategies {
					for _, p := range priorities {
						for _, x := range set.queries {
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
				key += set.suffix
				if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
					t.Errorf("%s: sha256 %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
