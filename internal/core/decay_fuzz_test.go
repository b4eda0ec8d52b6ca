package core_test

import (
	"bytes"
	"math"
	"testing"

	"bayestree/internal/core"
	"bayestree/internal/persist"
)

// A decay schedule is a byte string: the first byte picks the decay
// rate (mod 4: λ = 0, 0.25, 1, 3) and the pruning floor (/4 mod 3:
// MinWeight = 0, 0.01, 0.3); after it each byte is a step, a byte past
// the end reading as 0:
//
//	b mod 8 = 7  AdvanceDecay
//	otherwise    insert of class b mod 3 at two coordinates, one byte
//	             each (int8/16 beside the class's own offset)
//
// Both models — a three-class MultiTree and a forest of three one-class
// trees — take every step. The forest needs one observation per class
// to exist, so both start with the same three.
var (
	fuzzLambdas = [...]float64{0, 0.25, 1, 3}
	fuzzFloors  = [...]float64{0, 0.01, 0.3}
)

// scheduleObs is the birth epoch of every observation a schedule
// inserted, per class.
type scheduleObs [3][]int64

// decayModels is the pair of models a schedule drives.
type decayModels struct {
	mt     *core.MultiTree
	forest *core.Classifier
}

func newDecayModels(t *testing.T, opts core.DecayOptions) decayModels {
	t.Helper()
	cfg := core.Config{Dim: 2, MinFanout: 2, MaxFanout: 4, MinLeaf: 2, MaxLeaf: 4}
	mt, err := core.NewMultiTree(cfg, []int{0, 1, 2}, core.MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trees := make([]*core.MultiTree, 3)
	for c := range trees {
		if trees[c], err = core.NewMultiTree(cfg, []int{c}, core.MultiOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := trees[c].Insert([]float64{float64(c), 0}, c); err != nil {
			t.Fatal(err)
		}
		if err := mt.Insert([]float64{float64(c), 0}, c); err != nil {
			t.Fatal(err)
		}
	}
	forest, err := core.NewClassifier(trees, core.ClassifierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.EnableDecay(opts); err != nil {
		t.Fatal(err)
	}
	if err := forest.EnableDecay(opts); err != nil {
		t.Fatal(err)
	}
	return decayModels{mt: mt, forest: forest}
}

// checkDecaySchedule holds both models to the observations inserted so
// far: each survives while its weight, faded step by step as a sweep
// fades it, stays at or above the floor and above 0; Len counts the
// survivors, Weight is the closed form Σ 2^(−λ·age) over them within
// 1e-12 relative, Validate is clean and a snapshot decodes to a model
// that encodes to the same bytes.
func checkDecaySchedule(t *testing.T, m decayModels, opts core.DecayOptions, epoch int64, obs *scheduleObs) {
	t.Helper()
	// survives is the first age that is pruned: the sweeps multiply a
	// weight by 2^(−λ) once per epoch, in this order.
	survives := int64(math.MaxInt64)
	w, f := 1.0, math.Exp2(-opts.Lambda)
	for age := int64(1); age <= epoch; age++ {
		if w *= f; w < opts.MinWeight || w == 0 {
			survives = age
			break
		}
	}
	var total float64
	var alive int
	for c := range obs {
		var mass float64
		var n int
		for _, born := range obs[c] {
			if age := epoch - born; age < survives {
				mass += math.Exp2(-opts.Lambda * float64(age))
				n++
			}
		}
		tree := m.forest.Tree(c)
		if tree.Len() != n || tree.Epoch() != epoch {
			t.Fatalf("forest class %d: %d observations at epoch %d, want %d at %d", c, tree.Len(), tree.Epoch(), n, epoch)
		}
		if got := tree.Weight(); math.Abs(got-mass) > 1e-12*mass+1e-290 {
			t.Fatalf("forest class %d: Weight() %v, closed form %v", c, got, mass)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("forest class %d: %v", c, err)
		}
		total += mass
		alive += n
	}
	if m.mt.Len() != alive || m.mt.Epoch() != epoch {
		t.Fatalf("multi-class tree: %d observations at epoch %d, want %d at %d", m.mt.Len(), m.mt.Epoch(), alive, epoch)
	}
	if got := m.mt.Weight(); math.Abs(got-total) > 1e-12*total+1e-290 {
		t.Fatalf("multi-class tree: Weight() %v, closed form %v", got, total)
	}
	if err := m.mt.Validate(); err != nil {
		t.Fatalf("multi-class tree: %v", err)
	}

	var a, b bytes.Buffer
	if err := persist.EncodeMultiTrees(&a, []*core.MultiTree{m.mt}); err != nil {
		t.Fatal(err)
	}
	ts, err := persist.DecodeMultiTrees(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("multi-class tree snapshot: %v", err)
	}
	if err := persist.EncodeMultiTrees(&b, ts); err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("multi-class tree snapshot re-encodes differently (%v)", err)
	}
	a.Reset()
	b.Reset()
	if err := persist.EncodeClassifier(&a, m.forest); err != nil {
		t.Fatal(err)
	}
	clf, err := persist.DecodeClassifier(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("forest snapshot: %v", err)
	}
	if err := persist.EncodeClassifier(&b, clf); err != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("forest snapshot re-encodes differently (%v)", err)
	}
}

func runDecaySchedule(t *testing.T, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cfg := next()
	opts := core.DecayOptions{Lambda: fuzzLambdas[cfg%4], MinWeight: fuzzFloors[cfg/4%3]}
	m := newDecayModels(t, opts)
	obs := scheduleObs{{0}, {0}, {0}}
	var epoch int64
	checkDecaySchedule(t, m, opts, epoch, &obs)
	for len(data) > 0 {
		b := next()
		if b%8 == 7 {
			want := m.mt.AdvanceDecay()
			want.Add(m.forest.AdvanceDecay())
			if opts.Enabled() {
				epoch++
			} else if want != (core.SweepStats{}) {
				t.Fatalf("a decay step with decay off did %+v", want)
			}
		} else {
			c := int(b % 3)
			x := []float64{float64(c) + float64(int8(next()))/16, float64(int8(next())) / 16}
			if err := m.mt.Insert(x, c); err != nil {
				t.Fatal(err)
			}
			if err := m.forest.Learn(x, c); err != nil {
				t.Fatal(err)
			}
			obs[c] = append(obs[c], epoch)
		}
		checkDecaySchedule(t, m, opts, epoch, &obs)
	}
}

// FuzzDecaySchedule: whatever order inserts and decay steps come in,
// a classifier's trees hold exactly the observations whose faded weight
// has not fallen below the floor, at exactly their closed-form mass,
// stay valid, and round-trip through a snapshot byte for byte — the
// classifier's counterpart of clustree's FuzzInsertSchedule.
func FuzzDecaySchedule(f *testing.F) {
	// Every rate and floor: a few inserts of each class, then steps that
	// fade and prune, more inserts, more steps.
	for cfg := byte(0); cfg < 12; cfg++ {
		s := []byte{cfg}
		for i := byte(0); i < 40; i++ {
			s = append(s, i%3+8*(i%5), 17*i, 255-9*i)
			if i%6 == 5 {
				s = append(s, 7)
			}
		}
		f.Add(append(s, 7, 7, 7, 0, 4, 4, 7, 7, 7, 7, 7, 7))
	}
	// λ = 3 with no floor, long enough that the first observations'
	// weights underflow to 0.
	long := []byte{3}
	for i := 0; i < 400; i++ {
		long = append(long, 7)
		if i%50 == 0 {
			long = append(long, byte(i), byte(i), 3)
		}
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		runDecaySchedule(t, data)
	})
}
