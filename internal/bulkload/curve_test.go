package bulkload

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// The references the curve tests compare against: the inverse of
// axesToTranspose, and the keys as integers where d·bits fits 64 bits.

// transposeToAxes is the inverse of axesToTranspose (Skilling 2004).
func transposeToAxes(x []uint32, bits int) {
	if len(x) == 0 {
		return
	}
	n := uint32(2) << uint(bits-1)
	// Gray decode by H ^ (H/2).
	t := x[len(x)-1] >> 1
	for i := len(x) - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != n; q <<= 1 {
		p := q - 1
		for i := len(x) - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// hilbertAxes converts coordinates to the transposed Hilbert form and
// back, returning the reconstructed coordinates.
func hilbertAxes(coords []uint32, bits int) []uint32 {
	x := append([]uint32(nil), coords...)
	axesToTranspose(x, bits)
	transposeToAxes(x, bits)
	return x
}

// hilbertIndexUint64 returns the Hilbert index as a uint64 when the total
// key width d·bits fits in 64 bits; it reports an error otherwise.
func hilbertIndexUint64(coords []uint32, bits int) (uint64, error) {
	x := append([]uint32(nil), coords...)
	axesToTranspose(x, bits)
	return zIndexUint64(x, bits)
}

// zIndexUint64 returns the z-order index as a uint64 when it fits.
func zIndexUint64(coords []uint32, bits int) (uint64, error) {
	if len(coords)*bits > 64 {
		return 0, fmt.Errorf("%d dims × %d bits exceeds 64-bit index", len(coords), bits)
	}
	var idx uint64
	for b := bits - 1; b >= 0; b-- {
		for _, c := range coords {
			idx = idx<<1 | uint64(c>>uint(b)&1)
		}
	}
	return idx, nil
}

func TestQuantizerCells(t *testing.T) {
	q := newQuantizer([]float64{0, 0}, []float64{1, 10}, 4)
	c := q.cell([]float64{0, 0})
	if c[0] != 0 || c[1] != 0 {
		t.Errorf("low corner = %v", c)
	}
	c = q.cell([]float64{1, 10})
	if c[0] != 15 || c[1] != 15 {
		t.Errorf("high corner = %v (clamped to max)", c)
	}
	c = q.cell([]float64{0.5, 5})
	if c[0] != 8 || c[1] != 8 {
		t.Errorf("midpoint = %v, want cell 8", c)
	}
	// Out-of-box points clamp.
	c = q.cell([]float64{-3, 99})
	if c[0] != 0 || c[1] != 15 {
		t.Errorf("clamping failed: %v", c)
	}
	// Degenerate dimension maps to 0.
	q2 := newQuantizer([]float64{5}, []float64{5}, 4)
	if q2.cell([]float64{5})[0] != 0 {
		t.Errorf("degenerate dim not zero")
	}
}

// Known sequence: the 2D Hilbert curve of order 2 visits the four
// quadrant cells in the classic U-shape. Verify the first-order pattern:
// (0,0) → (0,1) → (1,1) → (1,0).
func TestHilbert2DOrder1(t *testing.T) {
	want := [][]uint32{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	for idx, cell := range want {
		got, err := hilbertIndexUint64(cell, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(idx) {
			t.Errorf("cell %v → index %d, want %d", cell, got, idx)
		}
	}
}

// Property: the Hilbert transposed transform round-trips (bijectivity).
func TestHilbertBijectiveProperty(t *testing.T) {
	f := func(a, b, c uint16, bitsRaw uint8) bool {
		bits := int(bitsRaw%14) + 2
		mask := uint32(1)<<bits - 1
		coords := []uint32{uint32(a) & mask, uint32(b) & mask, uint32(c) & mask}
		back := hilbertAxes(coords, bits)
		for i := range coords {
			if coords[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: all Hilbert indices over a small grid are distinct and cover
// the full range (the curve is a bijection cell ↔ index).
func TestHilbertCoversGrid(t *testing.T) {
	const bits = 3 // 8×8 grid
	seen := make(map[uint64]bool)
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			idx, err := hilbertIndexUint64([]uint32{x, y}, bits)
			if err != nil {
				t.Fatal(err)
			}
			if seen[idx] {
				t.Fatalf("duplicate index %d", idx)
			}
			seen[idx] = true
			if idx >= 64 {
				t.Fatalf("index %d out of range", idx)
			}
		}
	}
	if len(seen) != 64 {
		t.Fatalf("covered %d of 64 cells", len(seen))
	}
}

// The Hilbert curve's defining property: consecutive indices are adjacent
// cells (Manhattan distance exactly 1).
func TestHilbertLocality(t *testing.T) {
	const bits = 4 // 16×16
	cells := make([][]uint32, 256)
	for x := uint32(0); x < 16; x++ {
		for y := uint32(0); y < 16; y++ {
			idx, err := hilbertIndexUint64([]uint32{x, y}, bits)
			if err != nil {
				t.Fatal(err)
			}
			cells[idx] = []uint32{x, y}
		}
	}
	for i := 1; i < len(cells); i++ {
		d := manhattan(cells[i-1], cells[i])
		if d != 1 {
			t.Fatalf("consecutive Hilbert cells %v → %v at distance %d", cells[i-1], cells[i], d)
		}
	}
}

// Z-order known values: Morton interleave of (x=1, y=0) with 2 bits each.
func TestZOrderKnown(t *testing.T) {
	// bits are interleaved x-first (axis order), msb first:
	// x=01, y=00 → x1 y1 x0 y0 = 0 0 1 0 = 2.
	got, err := zIndexUint64([]uint32{1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("z(1,0) = %d, want 2", got)
	}
	got, _ = zIndexUint64([]uint32{3, 3}, 2)
	if got != 15 {
		t.Errorf("z(3,3) = %d, want 15", got)
	}
}

// keyOrderMatchesIndex checks that key compares two cells as their
// integer indices do.
func keyOrderMatchesIndex(key curveKey, index func([]uint32, int) (uint64, error)) func(a1, a2, b1, b2 uint8) bool {
	return func(a1, a2, b1, b2 uint8) bool {
		bits := 8
		ca := []uint32{uint32(a1), uint32(a2)}
		cb := []uint32{uint32(b1), uint32(b2)}
		ia, _ := index(ca, bits)
		ib, _ := index(cb, bits)
		cmp := bytes.Compare(key(ca, bits), key(cb, bits))
		switch {
		case ia < ib:
			return cmp < 0
		case ia > ib:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
}

// Property: z-order keys compare identically to z-order uint64 indices.
func TestZKeyMatchesIndexProperty(t *testing.T) {
	if err := quick.Check(keyOrderMatchesIndex(zKey, zIndexUint64), &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Hilbert keys compare identically to Hilbert uint64 indices.
func TestHilbertKeyMatchesIndexProperty(t *testing.T) {
	if err := quick.Check(keyOrderMatchesIndex(hilbertKey, hilbertIndexUint64), &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIndexOverflowGuard(t *testing.T) {
	coords := make([]uint32, 9)
	if _, err := hilbertIndexUint64(coords, 8); err == nil {
		t.Errorf("9 dims × 8 bits should not fit uint64")
	}
	if _, err := zIndexUint64(coords, 8); err == nil {
		t.Errorf("9 dims × 8 bits should not fit uint64")
	}
	// Keys handle it fine.
	k := hilbertKey(coords, 8)
	if len(k) != 9 {
		t.Errorf("key length = %d bytes, want 9", len(k))
	}
}

func TestSortByCurveDeterministicAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	points := make([][]float64, 200)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	for name, key := range map[string]curveKey{"hilbert": hilbertKey, "zcurve": zKey} {
		o1 := sortByCurve(points, 3, key)
		o2 := sortByCurve(points, 3, key)
		seen := make([]bool, len(points))
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("%s ordering not deterministic", name)
			}
			if seen[o1[i]] {
				t.Fatalf("%s ordering repeats index %d", name, o1[i])
			}
			seen[o1[i]] = true
		}
	}
}

// Sorting by Hilbert order should improve locality over random order:
// the summed distance between consecutive points must shrink.
func TestHilbertSortImprovesLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	points := make([][]float64, 500)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64()}
	}
	order := sortByCurve(points, 2, hilbertKey)
	randomPath := pathLength(points, identity(len(points)))
	hilbertPath := pathLength(points, order)
	if hilbertPath > randomPath*0.5 {
		t.Errorf("Hilbert path %v not much shorter than random %v", hilbertPath, randomPath)
	}
}

func TestBoundsOf(t *testing.T) {
	lo, hi := boundsOf([][]float64{{1, 5}, {-2, 7}}, 2)
	if lo[0] != -2 || hi[0] != 1 || lo[1] != 5 || hi[1] != 7 {
		t.Errorf("bounds = %v %v", lo, hi)
	}
	lo, hi = boundsOf(nil, 2)
	if lo[0] != 0 || hi[0] != 0 {
		t.Errorf("empty bounds = %v %v", lo, hi)
	}
}

func manhattan(a, b []uint32) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += int(a[i] - b[i])
		} else {
			d += int(b[i] - a[i])
		}
	}
	return d
}

func pathLength(points [][]float64, order []int) float64 {
	var total float64
	for i := 1; i < len(order); i++ {
		total += sq(points[order[i-1]], points[order[i]])
	}
	return total
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
