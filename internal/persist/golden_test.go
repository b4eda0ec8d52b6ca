package persist_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/persist"
	"bayestree/internal/server"
)

// TestGoldenDerivedSummariesMatchStored holds the v3 format to the bytes
// pinned before it, on the served golden models of internal/server's
// TestGoldenSnapshot (9,000 shuffled Pendigits points into 4 shards,
// with and without decay): their v3 snapshot, decoded and written again
// by the v2 writer, is the v2 snapshot the source model wrote — every
// derived inner summary bitwise the stored one — and servers restored
// from the v2 and the v3 bytes answer every probe as the source does.
func TestGoldenDerivedSummariesMatchStored(t *testing.T) {
	d, err := dataset.Pendigits(1)
	if err != nil {
		t.Fatal(err)
	}
	d.Shuffle(1)
	for _, tc := range []struct {
		name  string
		decay core.DecayOptions
		size  int
		sum   string
	}{
		{name: "plain", size: 4635717, sum: "d94bfd760ced479e505804c94e79d15e2043e416979e07986da616369a94a504"},
		{name: "decay", decay: core.DecayOptions{Lambda: 0.3, MinWeight: 0.05}, size: 3994968,
			sum: "a11dc8549edd6ce826f821eca1247f71b0edf5ec935989ea146f899885755052"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := server.Config{Decay: tc.decay}
			src, err := server.NewEmpty(4, core.DefaultConfig(d.Dim()), d.Classes(), core.MultiOptions{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			for i := 0; i < 9000; i++ {
				if err := src.Insert(d.X[i], d.Y[i]); err != nil {
					t.Fatal(err)
				}
				if i%7 == 0 {
					if _, err := src.Classify(d.X[9000+i%1000], 32); err != nil {
						t.Fatal(err)
					}
				}
				if tc.decay.Enabled() && i%500 == 499 {
					src.AdvanceDecay()
				}
			}
			var v3 bytes.Buffer
			if err := src.WriteSnapshot(&v3); err != nil {
				t.Fatal(err)
			}
			trees, err := persist.DecodeMultiTrees(bytes.NewReader(v3.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			v2 := persist.EncodeAt(2, trees)
			sum := sha256.Sum256(v2)
			if got := hex.EncodeToString(sum[:]); len(v2) != tc.size || got != tc.sum {
				t.Fatalf("the v2 writer's bytes of the decoded model are %d, sha256 %s; the source's were %d, %s", len(v2), got, tc.size, tc.sum)
			}
			for _, snap := range [][]byte{v3.Bytes(), v2} {
				restored, err := server.FromSnapshot(bytes.NewReader(snap), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 9000; i < 9100; i++ {
					for _, budget := range []int{0, 32, -1} {
						want, err := src.Classify(d.X[i], budget)
						if err != nil {
							t.Fatal(err)
						}
						got, err := restored.Classify(d.X[i], budget)
						if err != nil {
							t.Fatal(err)
						}
						if got.Label != want.Label || len(got.Scores) != len(want.Scores) {
							t.Fatalf("probe %d budget %d: label %d, want %d", i, budget, got.Label, want.Label)
						}
						for c := range want.Scores {
							if math.Float64bits(got.Scores[c]) != math.Float64bits(want.Scores[c]) {
								t.Fatalf("probe %d budget %d class %d: score %v, want %v", i, budget, c, got.Scores[c], want.Scores[c])
							}
						}
					}
				}
				restored.Close()
			}
		})
	}
}
