// Package dataset provides the training data substrate for the
// experiments: labelled vector data sets, stratified k-fold cross validation (the paper uses 4-fold), CSV
// loading for real UCI data when available, and seeded synthetic
// generators matched to the four data sets of Table 1 (Pendigits, Letter,
// Gender, Covertype) for fully offline reproduction.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dataset is a labelled collection of d-dimensional observations.
type Dataset struct {
	Name string
	X    [][]float64
	Y    []int
}

// Len returns the number of observations.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the dimensionality (0 for an empty data set).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks structural consistency: equal lengths, uniform
// dimensions, finite values.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("dataset %s: %d observations but %d labels", d.Name, len(d.X), len(d.Y))
	}
	if len(d.X) == 0 {
		return fmt.Errorf("dataset %s: empty", d.Name)
	}
	dim := len(d.X[0])
	for i, x := range d.X {
		if len(x) != dim {
			return fmt.Errorf("dataset %s: observation %d has dim %d, want %d", d.Name, i, len(x), dim)
		}
		for k, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dataset %s: non-finite value at [%d][%d]", d.Name, i, k)
			}
		}
	}
	return nil
}

// Classes returns the distinct labels in ascending order.
func (d *Dataset) Classes() []int {
	seen := make(map[int]bool)
	for _, y := range d.Y {
		seen[y] = true
	}
	out := make([]int, 0, len(seen))
	for y := range seen {
		out = append(out, y)
	}
	sort.Ints(out)
	return out
}

// ClassCounts returns the number of observations per label.
func (d *Dataset) ClassCounts() map[int]int {
	out := make(map[int]int)
	for _, y := range d.Y {
		out[y]++
	}
	return out
}

// ByClass groups the observations by label (views into X, not copies).
func (d *Dataset) ByClass() map[int][][]float64 {
	out := make(map[int][][]float64)
	for i, y := range d.Y {
		out[y] = append(out[y], d.X[i])
	}
	return out
}

// Subset returns the data set restricted to the given indices (views into
// the original observation vectors).
func (d *Dataset) Subset(idx []int, name string) *Dataset {
	out := &Dataset{Name: name, X: make([][]float64, len(idx)), Y: make([]int, len(idx))}
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
	}
	return out
}

// Shuffle permutes the data set in place with the given seed.
func (d *Dataset) Shuffle(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Fold is one train/test split of a cross validation.
type Fold struct {
	Train []int
	Test  []int
}

// StratifiedKFold partitions the data set into k folds preserving class
// proportions, seeded for reproducibility. Every observation appears in
// exactly one test fold.
func (d *Dataset) StratifiedKFold(k int, seed int64) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("dataset: k must be ≥ 2, got %d", k)
	}
	if k > d.Len() {
		return nil, fmt.Errorf("dataset: k=%d exceeds %d observations", k, d.Len())
	}
	rng := rand.New(rand.NewSource(seed))
	perClass := make(map[int][]int)
	for i, y := range d.Y {
		perClass[y] = append(perClass[y], i)
	}
	labels := d.Classes()
	testSets := make([][]int, k)
	for _, y := range labels {
		idxs := perClass[y]
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		for i, idx := range idxs {
			testSets[i%k] = append(testSets[i%k], idx)
		}
	}
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		test := testSets[f]
		sort.Ints(test)
		inTest := make(map[int]bool, len(test))
		for _, i := range test {
			inTest[i] = true
		}
		train := make([]int, 0, d.Len()-len(test))
		for i := 0; i < d.Len(); i++ {
			if !inTest[i] {
				train = append(train, i)
			}
		}
		folds[f] = Fold{Train: train, Test: test}
	}
	return folds, nil
}
