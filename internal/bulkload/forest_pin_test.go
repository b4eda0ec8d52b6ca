package bulkload_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bayestree/internal/bulkload"
	"bayestree/internal/core"
	"bayestree/internal/eval"
)

// trainGolden trains the per-class forest of one golden input with one
// loader.
func trainGolden(t *testing.T, in bulkload.GoldenInput, l bulkload.Loader, opts core.ClassifierOptions) *core.Classifier {
	t.Helper()
	cfg := in.Cfg
	clf, err := eval.TrainForest(in.DS, l, func(int) core.Config { return cfg }, opts)
	if err != nil {
		t.Fatalf("%s: %v", l.Name(), err)
	}
	return clf
}

// TestForestPosteriorsPinned pins the per-class forest's anytime answers
// bit for bit: per golden input and loader, a sha256 over the float64
// bits of the forest Query's posteriors after every node read 0..60, for
// every 8th object of the input, under each descent strategy and
// priority. A change to the forest's tree type, its loaders or its
// query must leave these unchanged.
func TestForestPosteriorsPinned(t *testing.T) {
	want := map[string]string{
		"pendigits/emtopdown":  "9e3531f641a82db555b8320606274b3a6475d164ed2200a250fe37eb0a909d97",
		"pendigits/hilbert":    "87bef77959ed16c3c4c63b5c68a0331d99ffe4eb4dfb2b1b3d4b340b088d7993",
		"pendigits/goldberger": "381c3a87f136a3fc677c6bb08d4265d51c31f29b7a45a274a08b5979bb5f133f",
		"pendigits/iterative":  "c0c5ba906750932081d2a4819207d22f80f7cdd1bf44b264e140f398ad45d4a3",
		"pendigits/zcurve":     "450b3e99e399306a67b7e2c09798f6e201437295efc2ff739770dae81bcfda2f",
		"pendigits/str":        "0de704e74ad5e1ed715d65c439abd7f29be932d41dc04df23d277c8abcfd7155",
		"pendigits/vsample":    "a177f1d16a714395cc565d293c61f33020fc0618b67430a31e8b3ed683f4a7fa",
		"dup/emtopdown":        "30b0616d17f76f7457a23d0d928f97efa945a949ca969952212a0d644a93da40",
		"dup/hilbert":          "aa45e03deac10fb554fc423facdda35c37ab8b3ed81096b702be4f181f23fe70",
		"dup/goldberger":       "97afa8f0abe6c46f509f48e0083a9a568d6074f65a84ac7e5a4fb9590040fe77",
		"dup/iterative":        "4399699ff45e1dc39446679833aaf879b6141618af11520de47fc988cc5eba62",
		"dup/zcurve":           "039ef4be934fb163c34f767f595fcb344838c6c74dcab38f1e875df18f14799b",
		"dup/str":              "d37b500e3a71e476690f16a2df4d05207bea582f3db6b9c7e1bcdf7e82e233ee",
		"dup/vsample":          "3283e9a09a40bd57b5b5965a7acf2e5ea76f5eb5147860520cc26f2da2dd758e",
	}
	strategies := []core.Strategy{core.DescentGlobal, core.DescentBFT, core.DescentDFT}
	priorities := []core.Priority{core.PriorityProbabilistic, core.PriorityGeometric}
	for name, in := range bulkload.GoldenInputs(t) {
		for _, l := range bulkload.All() {
			h := sha256.New()
			var word [8]byte
			for _, s := range strategies {
				for _, p := range priorities {
					clf := trainGolden(t, in, l, core.ClassifierOptions{Strategy: s, Priority: p})
					for i := 0; i < len(in.DS.X); i += 8 {
						q := clf.NewQuery(in.DS.X[i])
						for b := 0; b <= 60; b++ {
							if b > 0 {
								q.Step()
							}
							for _, v := range q.Posteriors() {
								binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
								h.Write(word[:])
							}
						}
						q.Close()
					}
				}
			}
			key := name + "/" + l.Name()
			if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
				t.Errorf("%s: sha256 %s, want %s", key, got, want[key])
			}
		}
	}
}

// decayedRecord is one recorded answer of a decayed forest: the
// posteriors of object Obj of the input after Budget node reads.
type decayedRecord struct {
	Key        string
	Obj        int
	Budget     int
	Posteriors []float64
}

// decayedForest trains the forest of one golden input, decays it four
// steps (AdvanceDecay) and returns it; the steps must
// dissolve nothing, so the decayed trees are the loaded trees with
// weighted leaves.
func decayedForest(t *testing.T, in bulkload.GoldenInput, l bulkload.Loader) *core.Classifier {
	t.Helper()
	clf := trainGolden(t, in, l, core.ClassifierOptions{})
	if err := clf.EnableDecay(core.DecayOptions{Lambda: 0.25}); err != nil {
		t.Fatal(err)
	}
	for range 4 {
		if st := clf.AdvanceDecay(); st != (core.SweepStats{}) {
			t.Fatalf("%s: sweep changed the trees' shape: %+v", l.Name(), st)
		}
	}
	return clf
}

// TestDecayedForestPosteriorsRecorded holds decayed forests to answers
// recorded in testdata/decayed_forest.json, within 1e-12: a decayed
// leaf's kernel terms may be summed in another order than at the
// recording. EMTopDown is left out: its underfull leaves are dissolved
// by the sweep and reinserted.
func TestDecayedForestPosteriorsRecorded(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "decayed_forest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []decayedRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	inputs := bulkload.GoldenInputs(t)
	forests := map[string]*core.Classifier{}
	for _, r := range recs {
		clf := forests[r.Key]
		if clf == nil {
			name, loader, _ := strings.Cut(r.Key, "/")
			l, ok := bulkload.ByName(loader)
			if !ok {
				t.Fatalf("unknown loader %q", loader)
			}
			clf = decayedForest(t, inputs[name], l)
			forests[r.Key] = clf
		}
		name, _, _ := strings.Cut(r.Key, "/")
		q := clf.NewQuery(inputs[name].DS.X[r.Obj])
		for i := 0; i < r.Budget; i++ {
			q.Step()
		}
		got := q.Posteriors()
		q.Close()
		for c, v := range got {
			if math.Abs(v-r.Posteriors[c]) > 1e-12 {
				t.Errorf("%s obj %d budget %d class %d: %v, recorded %v", r.Key, r.Obj, r.Budget, c, v, r.Posteriors[c])
			}
		}
	}
	if len(recs) == 0 {
		t.Fatal("no recorded answers")
	}
}
