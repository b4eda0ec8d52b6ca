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
		"pendigits/emtopdown":  "cefc0593e0be7f83d4d0d5324a36a046e3bebc4784edcfbc00226ba6c94b2079",
		"pendigits/hilbert":    "a794bfb9ea3db1f0ccf23948d8603e748cbabd434adde23137ee9cfb201c28df",
		"pendigits/goldberger": "edaaa9be7a3897f2f8badcc876863f7307df644129c5a0745b9780154e3b9281",
		"pendigits/iterative":  "d8962be097579fc3d8aa5dbeeae791745d7f6f815b8f711d16e85965b0591604",
		"pendigits/zcurve":     "122fa5c12f0fa67af2e40f5624c71662b3d43a0d29ebb88f9384af7da710ef4e",
		"pendigits/str":        "696126cc2878dc34c8ca94b5212b087c61ec1cea602d0eed730de2048cd19ce2",
		"pendigits/vsample":    "68fc2245cc6cefd43f0ec6b992e1a641e238c8aeee2a0c7a9911e0c2b22459aa",
		"dup/emtopdown":        "e895c7c1248e83c64003a088e18413fd51240241ce86ab26574262cabd9bb6b6",
		"dup/hilbert":          "4bb2460978c792e80199b3d3890f55000df4106a641a498511e5c3063713d71d",
		"dup/goldberger":       "680b146144895bbffbd1bd725ce85eb525bba883248f5ba22fab229c262de2fb",
		"dup/iterative":        "9e5cb9ca1cc357af5ef2a17ff4011389f2ffef2446f0c0ffa61c2c37e36f3424",
		"dup/zcurve":           "99bc6f59a887ebe5ae45829c3c748f969d88d9df32c936864f18a62050685e87",
		"dup/str":              "5873d62939a7a9ab9f491a58b0bb231f43e3f9c1b83fb4bbd96dfcc46f8a289f",
		"dup/vsample":          "4a1d43d4b86200cf28530bb137919b0ae4c03598d741e4bcde97ac4831819ebd",
	}
	for name, in := range goldenInputs(t) {
		byClass := in.ds.ByClass()
		labels := in.ds.Classes()
		for _, loader := range All() {
			trees := make([]*core.MultiTree, len(labels))
			for i, y := range labels {
				tree, err := loader.Build(byClass[y], in.cfg, y)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, loader.Name(), err)
				}
				trees[i] = tree
			}
			clf, err := core.NewClassifier(trees, core.ClassifierOptions{})
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
