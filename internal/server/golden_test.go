package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
)

// TestGoldenSnapshot pins the served model's bytes across commits: 9,000
// shuffled Pendigits points into 4 shards, a classify every 7th insert
// (so the cached query constants live through the inserts), encode to
// a pinned sha256 — with and without decay (λ = 0.3, floor 0.05, a
// maintenance sweep every 500 inserts, so points are pruned, subtrees
// collapse and orphans are reinserted). The v3 bytes hold the leaves;
// internal/persist's TestGoldenDerivedSummariesMatchStored holds the
// same models' v2 bytes, inner summaries and all, to the sha256 the
// parent of the class-local insert delta produced. A change to the
// floating-point order of any insert, split or sweep shows here; see
// EXPERIMENTS.md for the runs that pinned each hash.
func TestGoldenSnapshot(t *testing.T) {
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
		{name: "plain", size: 1235589, sum: "a49b6963e5229adc02de7ece15234d817c81cb85b911ace17ddb6b5bdaf9d381"},
		{name: "decay", decay: core.DecayOptions{Lambda: 0.3, MinWeight: 0.05}, size: 1018280,
			sum: "0faf8c656a7b7f7f8b8805e5e38d49d7f44403daec9b8a883481f6efac174e22"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewEmpty(4, core.DefaultConfig(d.Dim()), d.Classes(), core.MultiOptions{}, Config{Decay: tc.decay})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 9000; i++ {
				if err := s.Insert(d.X[i], d.Y[i]); err != nil {
					t.Fatal(err)
				}
				if i%7 == 0 {
					if _, err := s.Classify(d.X[9000+i%1000], 32); err != nil {
						t.Fatal(err)
					}
				}
				if tc.decay.Enabled() && i%500 == 499 {
					s.AdvanceDecay()
				}
			}
			var buf bytes.Buffer
			if err := s.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); buf.Len() != tc.size || got != tc.sum {
				t.Fatalf("snapshot is %d bytes, sha256 %s; want %d bytes, %s", buf.Len(), got, tc.size, tc.sum)
			}
		})
	}
}
