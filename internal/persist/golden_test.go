package persist_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/persist"
	"bayestree/internal/server"
	"bayestree/internal/stats"
)

// summaryDigest is a sha256 over every inner entry a set of multi-class
// trees holds, in pre-order: the float64 bits of its MBR's Lo and Hi,
// of each class CF's N and, for a class with mass, its LS and SS, and of
// its Total's. An absent class contributes its N alone, so the digest
// does not depend on whether an entry keeps vectors for it.
func summaryDigest(ts []*core.MultiTree) string {
	h := sha256.New()
	var word [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	putCF := func(cf *stats.CF) {
		put(cf.N)
		if cf.N > 0 {
			put(cf.LS...)
			put(cf.SS...)
		}
	}
	var walk func(n *core.MultiNode)
	walk = func(n *core.MultiNode) {
		if n.IsLeaf() {
			return
		}
		for _, e := range n.Entries() {
			put(e.Rect.Lo...)
			put(e.Rect.Hi...)
			for c := range e.CFs {
				putCF(&e.CFs[c])
			}
			putCF(&e.Total)
			walk(e.Child)
		}
	}
	for _, t := range ts {
		walk(t.Root())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDerivedSummariesMatchStored holds the summaries a decode
// derives to the ones the source stored, on the served golden models of
// internal/server's TestGoldenSnapshot (9,000 shuffled Pendigits points
// into 4 shards, with and without decay): the digest of the decoded
// model's inner summaries was pinned while a writer of the format that
// stored them (v2) still ran, and matched its bytes there (re-recorded
// once, when absent classes stopped being hashed, on the derivation that
// still matched the earlier digest); a server restored from the snapshot
// answers every probe as the source does.
func TestGoldenDerivedSummariesMatchStored(t *testing.T) {
	d, err := dataset.Pendigits(1)
	if err != nil {
		t.Fatal(err)
	}
	d.Shuffle(1)
	for _, tc := range []struct {
		name    string
		decay   core.DecayOptions
		summary string
	}{
		{name: "plain", summary: "07a59e70313f9687f872e5e95f708e06ff2ab1672b77b222ba26e6fe460740a0"},
		{name: "decay", decay: core.DecayOptions{Lambda: 0.3, MinWeight: 0.05},
			summary: "d7b98a9717ce8de96cff4a4ad179c2eb576e22e9ea76b8a0c807d1645715a2ed"},
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
			var snap bytes.Buffer
			if err := src.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			trees, err := persist.DecodeMultiTrees(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got := summaryDigest(trees); got != tc.summary {
				t.Fatalf("the decoded model's inner summaries have sha256 %s, want %s", got, tc.summary)
			}
			restored, err := server.FromSnapshot(bytes.NewReader(snap.Bytes()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
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
		})
	}
}
