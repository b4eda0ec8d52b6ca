package clustree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bayestree/internal/stats"
)

// A fuzz schedule is a byte string read as steps; the first byte of a
// step picks it (mod 8) and each step eats a fixed number of operands,
// a byte past the end reading as 0:
//
//	0–4  insert: two coordinates (an int16 each, /1024: ±32 in steps of
//	     2^-10), a time gap, a budget (mod 6, −1 … 4)
//	5    insert of a non-finite coordinate (NaN, +Inf, −Inf by operand),
//	     which must be an error that changes nothing
//	6    every read method, then every property is checked
//	7    SetLambda (0, 0.001, 0.01, 0.1, 1 by operand)
//
// A gap byte below 200 is that many eighths of a time unit; above, it is
// 2^(b−200), up to 2^55. Timestamps are therefore multiples of 1/8 and
// the schedule stops at 2^48, so every age now − tᵢ is exact.
const (
	opBadInsert = 5
	opRead      = 6
	opSetLambda = 7
)

var fuzzLambdas = [...]float64{0, 0.001, 0.01, 0.1, 1}

func fuzzInsert(x0, x1 int16, gap, budget byte) []byte {
	return []byte{0, byte(x0), byte(uint16(x0) >> 8), byte(x1), byte(uint16(x1) >> 8), gap, budget}
}

// fuzzObject is one inserted object and the exponent its weight has
// faded by since: Σ λ·Δt over the time that passed at each rate, summed,
// never multiplied up — the closed form the tree's composed decays are
// held to.
type fuzzObject struct {
	x    [2]float64
	fade float64
}

// subtreeMass checks every CF below n finite and every inner entry's
// weight equal to what is stored beneath it (no prune ran, so nothing
// was forgotten below an entry without the entry hearing of it), adds
// the mass parked above leaf level to parked and returns the node's
// weight. All entries must be at a common time: call it after the
// tree's own fadeAll.
func subtreeMass(t *testing.T, n *node, parked *stats.CF) float64 {
	t.Helper()
	var total float64
	for _, e := range n.entries {
		if err := e.cf.Validate(); err != nil {
			t.Fatalf("entry CF: %v", err)
		}
		if err := e.buffer.Validate(); err != nil {
			t.Fatalf("entry buffer: %v", err)
		}
		total += e.buffer.N
		if n.leaf {
			total += e.cf.N
			continue
		}
		parked.Merge(e.buffer)
		below := subtreeMass(t, e.child, parked)
		if !near(e.cf.N, below, below+1e-290) {
			t.Fatalf("inner entry weighs %v over a subtree of %v", e.cf.N, below)
		}
		total += below
	}
	return total
}

// checkSchedule holds the tree to the objects inserted so far.
func checkSchedule(t *testing.T, tree *Tree, objects []fuzzObject) {
	t.Helper()
	var wantN float64
	var wantLS, wantSS, absLS [2]float64
	for _, o := range objects {
		w := math.Exp2(-o.fade)
		wantN += w
		for k, v := range o.x {
			wantLS[k] += w * v
			absLS[k] += w * math.Abs(v)
			wantSS[k] += w * v * v
		}
	}
	// Below 1e-290 the weights are denormal and carry no nine digits.
	const floor = 1e-290
	// A read writes nothing: the tree dumps the same before and after
	// every read method.
	before := tree.Dump()
	mcs := tree.MicroClusters(0)
	if got := tree.MicroClusterCount(0); got != len(mcs) {
		t.Fatalf("MicroClusterCount(0) %d, MicroClusters(0) %d", got, len(mcs))
	}
	if got := tree.Weight(); !near(got, wantN, wantN+floor) {
		t.Fatalf("Weight() %v, closed form %v over %d objects", got, wantN, len(objects))
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tree.Dump(), before) {
		t.Fatal("a read changed the tree")
	}
	// The exported micro-clusters and the mass parked above leaf level
	// are the whole model: their weighted mean is the decayed mean of
	// the objects (CF additivity), to nine digits of Σ w·|x|.
	model := stats.NewCF(2)
	tree.fadeAll(tree.root)
	if stored := subtreeMass(t, tree.root, &model); !near(stored, wantN, wantN+floor) {
		t.Fatalf("stored mass %v, closed form %v", stored, wantN)
	}
	for _, mc := range mcs {
		model.Merge(mc.CF)
	}
	if !near(model.N, wantN, wantN+floor) {
		t.Fatalf("exported and parked mass %v, closed form %v", model.N, wantN)
	}
	for k := range wantLS {
		if !near(model.LS[k], wantLS[k], absLS[k]+floor) || !near(model.SS[k], wantSS[k], wantSS[k]+floor) {
			t.Fatalf("dim %d: LS %v SS %v, closed form LS %v SS %v (weight %v)", k, model.LS[k], model.SS[k], wantLS[k], wantSS[k], wantN)
		}
	}
}

func runSchedule(t *testing.T, data []byte) {
	cfg := DefaultConfig(2)
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	coord := func() float64 { return float64(int16(uint16(next())|uint16(next())<<8)) / 1024 }
	var objects []fuzzObject
	now := 0.0
	for len(data) > 0 && now < 1<<48 {
		switch op := next() % 8; op {
		default:
			x := [2]float64{coord(), coord()}
			gap := float64(next())
			if gap < 200 {
				gap /= 8
			} else {
				gap = math.Exp2(gap - 200)
			}
			budget := int(next()%6) - 1
			now += gap
			for i := range objects {
				objects[i].fade += tree.Config().Lambda * gap
			}
			if err := tree.Insert(x[:], now, budget); err != nil {
				t.Fatalf("insert %v at %v, budget %d: %v", x, now, budget, err)
			}
			objects = append(objects, fuzzObject{x: x})
		case opBadInsert:
			bad := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[next()%3]
			weight := tree.Weight()
			before, beforeInserts := tree.Dump(), tree.Inserts()
			for k := 0; k < 2; k++ {
				x := [2]float64{0.5, 0.5}
				x[k] = bad
				if _, err := tree.InsertCounted(x[:], now+1, -1); err == nil {
					t.Fatalf("insert of %v accepted", x)
				}
			}
			if tree.Now() != now || tree.Inserts() != beforeInserts || !reflect.DeepEqual(tree.Dump(), before) || tree.Weight() != weight {
				t.Fatalf("a rejected insert of %v changed the tree", bad)
			}
		case opRead:
			checkSchedule(t, tree, objects)
		case opSetLambda:
			if err := tree.SetLambda(fuzzLambdas[int(next())%len(fuzzLambdas)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkSchedule(t, tree, objects)
}

// FuzzInsertSchedule: whatever order inserts (any budget, any time
// gap), reads and rate changes come in, the tree holds exactly the mass
// it was given — Weight() is Σ 2^(−fadeᵢ) over the objects inserted and
// the stored LS and SS are the same sum weighted by xᵢ and xᵢ², to 1e-9
// relative: CF additivity plus composable decay, with no second tree to
// compare against. Beside that, Validate passes, every inner entry
// weighs what lies beneath it, every CF is finite, no read changes the
// tree's Dump, and a non-finite coordinate is an error that changes
// nothing. No prune: forgetting is
// the one operation that is allowed to lose mass.
func FuzzInsertSchedule(f *testing.F) {
	// Budget 0 on an empty tree, then a read.
	f.Add(append(fuzzInsert(100, -100, 8, 1), opRead))
	// Duplicates and exact ties: the same point again and again, at the
	// same instant and later, then its mirror images at equal distance.
	var ties []byte
	for i := 0; i < 12; i++ {
		ties = append(ties, fuzzInsert(512, 512, byte(8*(i%2)), byte(i))...)
	}
	for _, p := range [][2]int16{{-512, 512}, {512, -512}, {-512, -512}, {0, 0}, {0, 0}} {
		ties = append(ties, fuzzInsert(p[0], p[1], 4, 0)...)
	}
	f.Add(append(ties, opBadInsert, 0, opRead))
	// A 2^40 time jump under decay: every weight underflows to 0, and the
	// tree goes on from there.
	var jump []byte
	for i := 0; i < 20; i++ {
		jump = append(jump, fuzzInsert(int16(1500*i), int16(-900*i), 16, byte(i))...)
	}
	jump = append(jump, opRead)
	jump = append(jump, fuzzInsert(7, 7, 240, 0)...)
	jump = append(jump, opRead)
	for i := 0; i < 20; i++ {
		jump = append(jump, fuzzInsert(int16(1500*i), int16(-900*i), 1, byte(i))...)
	}
	f.Add(jump)
	// Seeded streams long enough to split, park and hitchhike, with
	// reads, rejected inserts and rate changes in between.
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s []byte
		for i := 0; i < 400; i++ {
			switch r := rng.Intn(40); {
			case r == 0:
				s = append(s, opSetLambda, byte(rng.Intn(4)))
			case r == 1:
				s = append(s, opBadInsert, byte(rng.Intn(3)))
			case r < 4:
				s = append(s, opRead)
			default:
				c := int16(4096 * (rng.Intn(5) - 2))
				s = append(s, fuzzInsert(c+int16(rng.Intn(300)), -c+int16(rng.Intn(300)), byte(rng.Intn(24)), byte(rng.Intn(6)))...)
			}
		}
		f.Add(s)
	}
	f.Fuzz(runSchedule)
}
