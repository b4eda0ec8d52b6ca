package bulkload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/persist"
)

// goldenInputs are the two pinned populations TestLoaderGolden builds
// forests over: a small Pendigits under the experiments' configuration,
// and a duplicate-heavy synthetic set (coordinates rounded to a coarse
// grid) under the small test configuration, sized so Goldberger's
// post-processing falls back to z-curve chunking.
func goldenInputs(t *testing.T) map[string]struct {
	ds  *dataset.Dataset
	cfg core.Config
} {
	t.Helper()
	pen, err := dataset.Pendigits(0.02)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := dataset.Synthetic(dataset.SyntheticSpec{
		Name: "dup", Size: 200, Classes: 2, Features: 2,
		ModesPerClass: 2, Spread: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range dup.X {
		for k := range x {
			x[k] = math.Round(x[k]*8) / 8
		}
	}
	return map[string]struct {
		ds  *dataset.Dataset
		cfg core.Config
	}{
		"pendigits": {pen, core.DefaultConfig(pen.Dim())},
		"dup":       {dup, testConfig(dup.Dim())},
	}
}

// TestLoaderGolden pins the forest every loader builds, bit for bit: the
// sha256 of the persist encoding of one tree per class. A refactor of the
// loaders or the algorithms under them must leave these unchanged.
func TestLoaderGolden(t *testing.T) {
	want := map[string]string{
		"pendigits/emtopdown":  "e74515429cd3a6565d958995e6c447e2968b18a476023ec50816e7225d49b165",
		"pendigits/hilbert":    "a1e62a00903a8992d5aa06b6308f51814b39f3415700bbd3eb9d00ca9d35f1d9",
		"pendigits/goldberger": "a676a7de1f77fa4915ada70a30a551899f6edf5a855b8908cc5e55eeb720fb05",
		"pendigits/iterative":  "3a2f580d28bdcbba4782970115235f58520c7e13766e518ce1fcf08d7d863c1a",
		"pendigits/zcurve":     "4f75ee4e51577e741144da0ded1721d56c758503fc87415e65181fd6ac2ea630",
		"pendigits/str":        "f7966fc46d9b2f3fe09dc1d3ae7f33c09e78e374ec7e3faa41fe28c2cc9f17f7",
		"pendigits/vsample":    "de0d36e26aeb3a41ff071ffd2948614d18d443f707f7de29b098772cd9a08335",
		"dup/emtopdown":        "9c7907a1deb4f3230d12b6e380210713dac247ec44422387090aa825c3e7e9de",
		"dup/hilbert":          "6dc538457c8c2b8c9a3e372e0c7467616db266a2d4fbfe808307d5bf99dd0ef1",
		"dup/goldberger":       "ed685fc31f6ad955ddf9ffb43fbd40fdc13d31f3ea04bdeb2987ec05a87baaab",
		"dup/iterative":        "e7545e1c951af5359ccfacd60ca76209c54cb64f986745f4442cc0e6328b5fd8",
		"dup/zcurve":           "dff8b037c292aaa965b96cead14427eae5a97953453c912926929a6c1453a763",
		"dup/str":              "5c383029edfb45e49add847df25d537b4311c34d17020d48d598d6fb1a62096a",
		"dup/vsample":          "d99af07ab673405d91d0928760143eb858b34dc6a97bc34f5aa4844921a8a74e",
	}
	for name, in := range goldenInputs(t) {
		byClass := in.ds.ByClass()
		labels := in.ds.Classes()
		for _, loader := range All() {
			trees := make([]*core.Tree, len(labels))
			for i, y := range labels {
				tree, err := loader.Build(byClass[y], in.cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, loader.Name(), err)
				}
				trees[i] = tree
			}
			clf, err := core.NewClassifier(labels, trees, core.ClassifierOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := persist.EncodeClassifier(&buf, clf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			key := name + "/" + loader.Name()
			if got := hex.EncodeToString(sum[:]); got != want[key] {
				t.Errorf("%s: sha256 %s, want %s", key, got, want[key])
			}
		}
	}
}
