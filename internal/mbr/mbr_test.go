package mbr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rect(t *testing.T, lo, hi []float64) Rect {
	t.Helper()
	r, err := New(lo, hi)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]float64{0}, []float64{1, 2}); err == nil {
		t.Errorf("dim mismatch accepted")
	}
	if _, err := New([]float64{2}, []float64{1}); err == nil {
		t.Errorf("inverted bounds accepted")
	}
}

func TestPointAndContains(t *testing.T) {
	p := Point([]float64{1, 2})
	if !p.ContainsPoint([]float64{1, 2}) {
		t.Errorf("point rect should contain its point")
	}
	if p.Area() != 0 {
		t.Errorf("point rect area = %v", p.Area())
	}
	r := rect(t, []float64{0, 0}, []float64{2, 3})
	if !r.Contains(p) {
		t.Errorf("containment failed")
	}
	if r.Contains(rect(t, []float64{1, 1}, []float64{3, 3})) {
		t.Errorf("partial overlap reported as containment")
	}
}

func TestAreaMarginCenter(t *testing.T) {
	r := rect(t, []float64{0, 0}, []float64{2, 3})
	if r.Area() != 6 {
		t.Errorf("area = %v", r.Area())
	}
	if r.Margin() != 5 {
		t.Errorf("margin = %v", r.Margin())
	}
	c := r.Center()
	if c[0] != 1 || c[1] != 1.5 {
		t.Errorf("center = %v", c)
	}
}

func TestEmptyRect(t *testing.T) {
	e := Empty(2)
	if !e.IsEmpty() {
		t.Errorf("Empty not empty")
	}
	e.ExtendPoint([]float64{1, 1})
	if e.IsEmpty() {
		t.Errorf("extended rect still empty")
	}
	if e.Lo[0] != 1 || e.Hi[0] != 1 {
		t.Errorf("extend from empty wrong: %v", e)
	}
}

func TestUnionCoversInputsProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		ra := normRect(a[:2], a[2:])
		rb := normRect(b[:2], b[2:])
		u := Union(ra, rb)
		return u.Contains(ra) && u.Contains(rb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionAreaMonotoneProperty(t *testing.T) {
	f := func(a, b [4]float64) bool {
		ra := normRect(a[:2], a[2:])
		rb := normRect(b[:2], b[2:])
		u := Union(ra, rb)
		return u.Area() >= ra.Area()-1e-9 && u.Area() >= rb.Area()-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverlapArea(t *testing.T) {
	a := rect(t, []float64{0, 0}, []float64{2, 2})
	b := rect(t, []float64{1, 1}, []float64{3, 3})
	if got := OverlapArea(a, b); got != 1 {
		t.Errorf("overlap = %v, want 1", got)
	}
	c := rect(t, []float64{5, 5}, []float64{6, 6})
	if got := OverlapArea(a, c); got != 0 {
		t.Errorf("disjoint overlap = %v", got)
	}
	// Overlap is symmetric and bounded by each area.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		x := randomRect(rng, 3)
		y := randomRect(rng, 3)
		oxy, oyx := OverlapArea(x, y), OverlapArea(y, x)
		if math.Abs(oxy-oyx) > 1e-9 {
			t.Fatalf("overlap asymmetric")
		}
		if oxy > x.Area()+1e-9 || oxy > y.Area()+1e-9 {
			t.Fatalf("overlap exceeds area")
		}
	}
}

func TestUnionArea(t *testing.T) {
	a := rect(t, []float64{0, 0}, []float64{1, 1})
	b := rect(t, []float64{0, 0}, []float64{2, 1})
	if got := UnionArea(a, b) - a.Area(); math.Abs(got-1) > 1e-12 {
		t.Errorf("enlargement = %v, want 1", got)
	}
	if got := UnionArea(b, a) - b.Area(); got != 0 {
		t.Errorf("enlargement of contained rect = %v, want 0", got)
	}
}

// UnionArea takes the union's sides on the fly; it must stay, bit for
// bit, the area of the materialised union — subtree choice compares it
// less the entry's own area, and trees are pinned by bytes.
func TestUnionAreaIsAreaOfUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		d := 1 + rng.Intn(6)
		r, other := randomRect(rng, d), randomRect(rng, d)
		switch i % 4 {
		case 1:
			r = Empty(d)
		case 2:
			other = Point(other.Lo)
		case 3:
			r.Lo[0], r.Hi[0] = r.Hi[0], r.Lo[0] // inverted in one dimension
		}
		want := Union(r, other).Area()
		if got := UnionArea(r, other); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("UnionArea(%v, %v) = %v, area of the union %v", r, other, got, want)
		}
	}
}

func TestMinDist(t *testing.T) {
	r := rect(t, []float64{0, 0}, []float64{1, 1})
	if got := r.MinDist2Obs([]float64{0.5, 0.5}, nil); got != 0 {
		t.Errorf("inside point dist² = %v", got)
	}
	if got := r.MinDist2Obs([]float64{4, 5}, nil); math.Abs(got-25) > 1e-12 {
		t.Errorf("corner dist² = %v, want 25", got)
	}
	if got := r.MinDist2Obs([]float64{0.5, 3}, nil); math.Abs(got-4) > 1e-12 {
		t.Errorf("edge dist² = %v, want 4", got)
	}
	// Restricted to dimension 0 only the x offset counts.
	if got := r.MinDist2Obs([]float64{4, 5}, []int{0}); math.Abs(got-9) > 1e-12 {
		t.Errorf("marginal dist² = %v, want 9", got)
	}
}

// Property: MINDIST lower-bounds the distance to any contained point.
func TestMinDistLowerBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		r := randomRect(rng, 2)
		q := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		// Random point inside r.
		p := []float64{
			r.Lo[0] + rng.Float64()*(r.Hi[0]-r.Lo[0]),
			r.Lo[1] + rng.Float64()*(r.Hi[1]-r.Lo[1]),
		}
		dp := math.Hypot(p[0]-q[0], p[1]-q[1])
		if md := math.Sqrt(r.MinDist2Obs(q, nil)); md > dp+1e-9 {
			t.Fatalf("MINDIST %v exceeds point distance %v", md, dp)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := rect(t, []float64{0}, []float64{1}).Validate(); err != nil {
		t.Errorf("valid rect rejected: %v", err)
	}
	bad := Rect{Lo: []float64{1}, Hi: []float64{0}}
	if err := bad.Validate(); err == nil {
		t.Errorf("inverted rect accepted")
	}
	bad = Rect{Lo: []float64{math.NaN()}, Hi: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Errorf("NaN rect accepted")
	}
	if err := Empty(1).Validate(); err == nil {
		t.Errorf("empty rect should not validate")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := rect(t, []float64{0}, []float64{1})
	c := r.Clone()
	c.Lo[0] = -5
	if r.Lo[0] != 0 {
		t.Errorf("Clone aliases storage")
	}
}

func TestString(t *testing.T) {
	s := rect(t, []float64{0}, []float64{1}).String()
	if s == "" {
		t.Errorf("empty String()")
	}
}

func normRect(lo, hi []float64) Rect {
	l := make([]float64, len(lo))
	h := make([]float64, len(lo))
	for i := range lo {
		a, b := lo[i], hi[i]
		if math.IsNaN(a) || math.IsInf(a, 0) {
			a = 0
		}
		if math.IsNaN(b) || math.IsInf(b, 0) {
			b = 1
		}
		a, b = math.Mod(a, 100), math.Mod(b, 100)
		if a > b {
			a, b = b, a
		}
		l[i], h[i] = a, b
	}
	return Rect{Lo: l, Hi: h}
}

func randomRect(rng *rand.Rand, d int) Rect {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := 0; i < d; i++ {
		a, b := rng.NormFloat64()*2, rng.NormFloat64()*2
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	return Rect{Lo: lo, Hi: hi}
}
