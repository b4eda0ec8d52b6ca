package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func mustSynthetic(t *testing.T, spec SyntheticSpec) *Dataset {
	t.Helper()
	ds, err := Synthetic(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func demoSpec() SyntheticSpec {
	return SyntheticSpec{Name: "demo", Size: 500, Classes: 4, Features: 5, Seed: 1}
}

func TestSyntheticValidationErrors(t *testing.T) {
	bad := []SyntheticSpec{
		{Name: "x", Size: 0, Classes: 2, Features: 2},
		{Name: "x", Size: 10, Classes: 0, Features: 2},
		{Name: "x", Size: 10, Classes: 2, Features: 2, NoiseDims: 2},
		{Name: "x", Size: 10, Classes: 2, Features: 2, Overlap: 1.5},
	}
	for i, spec := range bad {
		if _, err := Synthetic(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestSyntheticBasicShape(t *testing.T) {
	ds := mustSynthetic(t, demoSpec())
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 500 || ds.Dim() != 5 {
		t.Fatalf("shape %d×%d", ds.Len(), ds.Dim())
	}
	if got := len(ds.Classes()); got != 4 {
		t.Fatalf("classes = %d", got)
	}
	// All values inside [0,1].
	for _, x := range ds.X {
		for _, v := range x {
			if v < 0 || v > 1 {
				t.Fatalf("value %v outside unit cube", v)
			}
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := mustSynthetic(t, demoSpec())
	b := mustSynthetic(t, demoSpec())
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("labels differ at %d", i)
		}
		for k := range a.X[i] {
			if a.X[i][k] != b.X[i][k] {
				t.Fatalf("values differ at %d/%d", i, k)
			}
		}
	}
	spec := demoSpec()
	spec.Seed = 2
	c := mustSynthetic(t, spec)
	same := true
	for i := range a.X {
		if a.Y[i] != c.Y[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds produced identical labels")
	}
}

func TestSyntheticSkew(t *testing.T) {
	spec := demoSpec()
	spec.Size = 5000
	spec.Skew = 1.5
	ds := mustSynthetic(t, spec)
	counts := ds.ClassCounts()
	if counts[0] <= counts[3] {
		t.Errorf("skew not applied: %v", counts)
	}
}

func TestSyntheticClassesAreLearnable(t *testing.T) {
	// Nearest-centroid on informative dims must beat chance by a wide
	// margin — the generator must actually encode the labels.
	ds := mustSynthetic(t, demoSpec())
	byClass := ds.ByClass()
	centroids := map[int][]float64{}
	for y, pts := range byClass {
		c := make([]float64, ds.Dim())
		for _, p := range pts {
			for k, v := range p {
				c[k] += v
			}
		}
		for k := range c {
			c[k] /= float64(len(pts))
		}
		centroids[y] = c
	}
	correct := 0
	for i, x := range ds.X {
		best, bestD := -1, math.Inf(1)
		for y, c := range centroids {
			var d float64
			for k := range x {
				dd := x[k] - c[k]
				d += dd * dd
			}
			if d < bestD {
				best, bestD = y, d
			}
		}
		if best == ds.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(ds.Len()); acc < 0.5 {
		t.Errorf("centroid accuracy %v — labels look random", acc)
	}
}

func TestNamedDatasetsMatchTable1(t *testing.T) {
	for _, row := range Table1() {
		name := strings.ToLower(row.Name)
		ds, err := ByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.Len() != row.Size {
			t.Errorf("%s: size %d, want %d", name, ds.Len(), row.Size)
		}
		if ds.Dim() != row.Features {
			t.Errorf("%s: features %d, want %d", name, ds.Dim(), row.Features)
		}
		if got := len(ds.Classes()); got != row.Classes {
			t.Errorf("%s: classes %d, want %d", name, got, row.Classes)
		}
	}
	if _, err := ByName("mnist", 1); err == nil {
		t.Errorf("unknown data set accepted")
	}
}

func TestScaledSizes(t *testing.T) {
	ds, err := Pendigits(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 1099 {
		t.Errorf("scaled size = %d, want 1099", ds.Len())
	}
	ds, err = Pendigits(0.000001)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 100 {
		t.Errorf("minimum scale clamp failed: %d", ds.Len())
	}
}

// Property: stratified k-fold partitions every index into exactly one
// test fold, and train/test are disjoint and complete.
func TestStratifiedKFoldPartitionProperty(t *testing.T) {
	ds := mustSynthetic(t, demoSpec())
	f := func(kRaw uint8, seed int64) bool {
		k := int(kRaw%6) + 2
		folds, err := ds.StratifiedKFold(k, seed)
		if err != nil {
			return false
		}
		seen := make([]int, ds.Len())
		for _, fold := range folds {
			inTest := map[int]bool{}
			for _, i := range fold.Test {
				seen[i]++
				inTest[i] = true
			}
			if len(fold.Train)+len(fold.Test) != ds.Len() {
				return false
			}
			for _, i := range fold.Train {
				if inTest[i] {
					return false
				}
			}
		}
		for _, s := range seen {
			if s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStratifiedKFoldPreservesProportions(t *testing.T) {
	spec := demoSpec()
	spec.Size = 4000
	ds := mustSynthetic(t, spec)
	folds, err := ds.StratifiedKFold(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	global := ds.ClassCounts()
	for fi, fold := range folds {
		test := ds.Subset(fold.Test, "t")
		counts := test.ClassCounts()
		for y, n := range global {
			frac := float64(counts[y]) / float64(test.Len())
			want := float64(n) / float64(ds.Len())
			if math.Abs(frac-want) > 0.05 {
				t.Errorf("fold %d class %d proportion %v, want ≈ %v", fi, y, frac, want)
			}
		}
	}
	if _, err := ds.StratifiedKFold(1, 1); err == nil {
		t.Errorf("k=1 accepted")
	}
	if _, err := ds.StratifiedKFold(ds.Len()+1, 1); err == nil {
		t.Errorf("k>n accepted")
	}
}

func TestNormalize(t *testing.T) {
	ds := &Dataset{Name: "n", X: [][]float64{{0, 5}, {10, 5}, {5, 5}}, Y: []int{0, 1, 0}}
	lo, hi := ds.Normalize()
	if lo[0] != 0 || hi[0] != 10 {
		t.Errorf("bounds = %v %v", lo, hi)
	}
	if ds.X[1][0] != 1 || ds.X[2][0] != 0.5 {
		t.Errorf("normalised X = %v", ds.X)
	}
	// Constant dimension maps to zero.
	if ds.X[0][1] != 0 || ds.X[1][1] != 0 {
		t.Errorf("constant dim = %v", ds.X)
	}
}

func TestSample(t *testing.T) {
	spec := demoSpec()
	spec.Size = 2000
	ds := mustSynthetic(t, spec)
	s := ds.Sample(200, 1)
	if s.Len() < 150 || s.Len() > 250 {
		t.Errorf("sample size %d, want ≈ 200", s.Len())
	}
	if got := len(s.Classes()); got != 4 {
		t.Errorf("sample lost classes: %d", got)
	}
	if ds.Sample(99999, 1) != ds {
		t.Errorf("oversample should return the original")
	}
}

func TestShuffleKeepsPairs(t *testing.T) {
	ds := mustSynthetic(t, demoSpec())
	type pair struct {
		x0 float64
		y  int
	}
	want := map[pair]int{}
	for i := range ds.X {
		want[pair{ds.X[i][0], ds.Y[i]}]++
	}
	ds.Shuffle(3)
	got := map[pair]int{}
	for i := range ds.X {
		got[pair{ds.X[i][0], ds.Y[i]}]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("shuffle broke x/y pairing")
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ds := mustSynthetic(t, demoSpec())
	ds.X[3] = []float64{1} // wrong dim
	if err := ds.Validate(); err == nil {
		t.Errorf("dim corruption accepted")
	}
	ds = mustSynthetic(t, demoSpec())
	ds.X[3][0] = math.NaN()
	if err := ds.Validate(); err == nil {
		t.Errorf("NaN accepted")
	}
	ds = mustSynthetic(t, demoSpec())
	ds.Y = ds.Y[:10]
	if err := ds.Validate(); err == nil {
		t.Errorf("length mismatch accepted")
	}
}

// Normalize rescales every dimension to [0, 1] in place (min-max).
// Constant dimensions map to 0. It returns the per-dimension (lo, hi)
// used, so streams can apply the same scaling later.
func (d *Dataset) Normalize() (lo, hi []float64) {
	dim := d.Dim()
	lo = make([]float64, dim)
	hi = make([]float64, dim)
	for k := 0; k < dim; k++ {
		lo[k], hi[k] = math.Inf(1), math.Inf(-1)
	}
	for _, x := range d.X {
		for k, v := range x {
			if v < lo[k] {
				lo[k] = v
			}
			if v > hi[k] {
				hi[k] = v
			}
		}
	}
	for _, x := range d.X {
		for k := range x {
			if hi[k] > lo[k] {
				x[k] = (x[k] - lo[k]) / (hi[k] - lo[k])
			} else {
				x[k] = 0
			}
		}
	}
	return lo, hi
}

// Sample returns a stratified random sample of approximately n
// observations (at least one per class), used to scale experiments down.
func (d *Dataset) Sample(n int, seed int64) *Dataset {
	if n >= d.Len() {
		return d
	}
	rng := rand.New(rand.NewSource(seed))
	frac := float64(n) / float64(d.Len())
	perClass := make(map[int][]int)
	for i, y := range d.Y {
		perClass[y] = append(perClass[y], i)
	}
	var pick []int
	labels := d.Classes()
	for _, y := range labels {
		idxs := perClass[y]
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		take := int(math.Round(frac * float64(len(idxs))))
		if take < 1 {
			take = 1
		}
		if take > len(idxs) {
			take = len(idxs)
		}
		pick = append(pick, idxs[:take]...)
	}
	sort.Ints(pick)
	return d.Subset(pick, fmt.Sprintf("%s[n=%d]", d.Name, len(pick)))
}
