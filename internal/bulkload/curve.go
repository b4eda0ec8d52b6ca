package bulkload

import (
	"bytes"
	"sort"
)

// The space-filling curves of Section 3.1: the Hilbert and z-curve
// packings, and Goldberger's initial mapping π₀, which groups mixture
// components "according to the z-curve order of their mean values".
//
// Both curves work on a quantised grid: vectors are mapped into
// [0, 2^bits)^d relative to their bounding box, then encoded into a
// bit-interleaved key. Keys are byte strings compared lexicographically,
// so any dimensionality works without overflowing a machine word. The
// d-dimensional Hilbert encoding follows John Skilling, "Programming the
// Hilbert curve" (AIP 2004).

// curveBits is the quantisation precision per dimension of every curve
// key the loaders compute.
const curveBits = 10

// curveKey encodes a quantised cell at the given precision.
type curveKey func(cell []uint32, bits int) []byte

// sortByCurve returns the indices 0..len(points)-1 ordered by the curve
// key of each point. Ties keep their original relative order, making the
// ordering deterministic.
func sortByCurve(points [][]float64, d int, key curveKey) []int {
	lo, hi := boundsOf(points, d)
	q := newQuantizer(lo, hi, curveBits)
	keys := make([][]byte, len(points))
	for i, p := range points {
		keys[i] = key(q.cell(p), curveBits)
	}
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return bytes.Compare(keys[idx[a]], keys[idx[b]]) < 0
	})
	return idx
}

// quantizer maps continuous vectors into an integer grid.
type quantizer struct {
	lo    []float64
	scale []float64 // grid cells per unit length, per dimension
	max   uint32
}

// newQuantizer builds a quantizer for the axis-aligned box [lo, hi] with
// the given number of bits per dimension. Degenerate dimensions
// (hi == lo) map everything to cell 0.
func newQuantizer(lo, hi []float64, bits int) *quantizer {
	q := &quantizer{
		lo:    append([]float64(nil), lo...),
		scale: make([]float64, len(lo)),
		max:   (uint32(1) << bits) - 1,
	}
	cells := float64(uint64(1) << bits)
	for i := range lo {
		if hi[i] > lo[i] {
			q.scale[i] = cells / (hi[i] - lo[i])
		}
	}
	return q
}

// boundsOf returns the component-wise bounding box of the given points.
func boundsOf(points [][]float64, d int) (lo, hi []float64) {
	lo = make([]float64, d)
	hi = make([]float64, d)
	if len(points) == 0 {
		return lo, hi
	}
	copy(lo, points[0])
	copy(hi, points[0])
	for _, p := range points[1:] {
		for i := 0; i < d; i++ {
			if p[i] < lo[i] {
				lo[i] = p[i]
			}
			if p[i] > hi[i] {
				hi[i] = p[i]
			}
		}
	}
	return lo, hi
}

// cell quantises x into grid coordinates, clamping to the grid.
func (q *quantizer) cell(x []float64) []uint32 {
	out := make([]uint32, len(q.lo))
	for i := range q.lo {
		v := (x[i] - q.lo[i]) * q.scale[i]
		switch {
		case v <= 0:
			out[i] = 0
		case v >= float64(q.max):
			out[i] = q.max
		default:
			out[i] = uint32(v)
		}
	}
	return out
}

// zKey returns the z-order (Morton) key of quantised coordinates: the top
// bits of each coordinate, most significant bit-plane first, axis order
// within each plane.
func zKey(coords []uint32, bits int) []byte {
	out := make([]byte, (len(coords)*bits+7)/8)
	pos := 0
	for b := bits - 1; b >= 0; b-- {
		for _, c := range coords {
			if c>>(uint(b))&1 == 1 {
				out[pos/8] |= 1 << (7 - uint(pos%8))
			}
			pos++
		}
	}
	return out
}

// hilbertKey returns the Hilbert-curve key of quantised coordinates. The
// input slice is not modified.
func hilbertKey(coords []uint32, bits int) []byte {
	x := append([]uint32(nil), coords...)
	axesToTranspose(x, bits)
	return zKey(x, bits)
}

// axesToTranspose converts grid coordinates into the transposed Hilbert
// index in place (Skilling 2004).
func axesToTranspose(x []uint32, bits int) {
	if len(x) == 0 {
		return
	}
	m := uint32(1) << uint(bits-1)
	// Inverse undo of the excess work.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < len(x); i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < len(x); i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[len(x)-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := range x {
		x[i] ^= t
	}
}
