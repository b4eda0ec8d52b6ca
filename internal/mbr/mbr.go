// Package mbr implements minimum bounding rectangles and the rectangle
// algebra used by R-tree-family indexes: area, margin, overlap, union area,
// union and the MINDIST lower bound used by geometric descent priorities.
// The Bayes tree stores an MBR in every entry (Definition 1) and the
// standalone R*-tree substrate is built entirely on this package.
package mbr

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned d-dimensional rectangle with inclusive bounds
// Lo[i] ≤ Hi[i] per dimension.
type Rect struct {
	Lo []float64
	Hi []float64
}

// New returns a rectangle copying the given bounds. It returns an error if
// the dimensions disagree or any lower bound exceeds its upper bound.
func New(lo, hi []float64) (Rect, error) {
	if len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("mbr: lo dim %d != hi dim %d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Rect{}, fmt.Errorf("mbr: lo[%d]=%v > hi[%d]=%v", i, lo[i], i, hi[i])
		}
	}
	r := Rect{Lo: make([]float64, len(lo)), Hi: make([]float64, len(hi))}
	copy(r.Lo, lo)
	copy(r.Hi, hi)
	return r, nil
}

// Point returns the degenerate rectangle covering exactly the point x.
func Point(x []float64) Rect {
	r := Rect{Lo: make([]float64, len(x)), Hi: make([]float64, len(x))}
	copy(r.Lo, x)
	copy(r.Hi, x)
	return r
}

// Empty returns a canonical "empty" rectangle of dimension d whose bounds
// are inverted infinities; unioning anything into it yields that thing.
func Empty(d int) Rect {
	r := Rect{Lo: make([]float64, d), Hi: make([]float64, d)}
	for i := 0; i < d; i++ {
		r.Lo[i] = math.Inf(1)
		r.Hi[i] = math.Inf(-1)
	}
	return r
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// IsEmpty reports whether r is the canonical empty rectangle (or otherwise
// inverted in any dimension).
func (r Rect) IsEmpty() bool {
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] {
			return true
		}
	}
	return len(r.Lo) == 0
}

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	out := Rect{Lo: make([]float64, len(r.Lo)), Hi: make([]float64, len(r.Hi))}
	copy(out.Lo, r.Lo)
	copy(out.Hi, r.Hi)
	return out
}

// Extend grows r in place to cover other and returns r.
func (r *Rect) Extend(other Rect) {
	for i := range r.Lo {
		if other.Lo[i] < r.Lo[i] {
			r.Lo[i] = other.Lo[i]
		}
		if other.Hi[i] > r.Hi[i] {
			r.Hi[i] = other.Hi[i]
		}
	}
}

// ExtendPoint grows r in place to cover the point x.
func (r *Rect) ExtendPoint(x []float64) {
	for i := range r.Lo {
		if x[i] < r.Lo[i] {
			r.Lo[i] = x[i]
		}
		if x[i] > r.Hi[i] {
			r.Hi[i] = x[i]
		}
	}
}

// Union returns the smallest rectangle covering both a and b.
func Union(a, b Rect) Rect {
	out := a.Clone()
	out.Extend(b)
	return out
}

// Area returns the d-dimensional volume of r (0 for degenerate or empty
// rectangles).
func (r Rect) Area() float64 {
	if len(r.Lo) == 0 {
		return 0
	}
	a := 1.0
	for i := range r.Lo {
		side := r.Hi[i] - r.Lo[i]
		if side < 0 {
			return 0
		}
		a *= side
	}
	return a
}

// Margin returns the sum of the side lengths of r (the "margin" minimised
// by the R* split axis choice; proportional to the surface for d=2).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Lo {
		side := r.Hi[i] - r.Lo[i]
		if side > 0 {
			m += side
		}
	}
	return m
}

// Center returns the midpoint of r.
func (r Rect) Center() []float64 {
	c := make([]float64, len(r.Lo))
	for i := range r.Lo {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Contains reports whether r fully contains other.
func (r Rect) Contains(other Rect) bool {
	for i := range r.Lo {
		if other.Lo[i] < r.Lo[i] || other.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the point x lies inside r (inclusive).
func (r Rect) ContainsPoint(x []float64) bool {
	for i := range r.Lo {
		if x[i] < r.Lo[i] || x[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// OverlapArea returns the volume of the intersection of a and b.
func OverlapArea(a, b Rect) float64 {
	v := 1.0
	for i := range a.Lo {
		lo := math.Max(a.Lo[i], b.Lo[i])
		hi := math.Min(a.Hi[i], b.Hi[i])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// UnionArea returns Union(r, other).Area(), the union's sides taken on
// the fly so a subtree choice allocates nothing; less r.Area() it is the
// enlargement R-trees choose subtrees by.
func UnionArea(r, other Rect) float64 {
	if len(r.Lo) == 0 {
		return 0
	}
	u := 1.0
	for i := range r.Lo {
		lo, hi := r.Lo[i], r.Hi[i]
		if other.Lo[i] < lo {
			lo = other.Lo[i]
		}
		if other.Hi[i] > hi {
			hi = other.Hi[i]
		}
		side := hi - lo
		if side < 0 {
			return 0
		}
		u *= side
	}
	return u
}

// MinDist2Obs returns the squared minimum distance from the point x to
// the rectangle (0 if x is inside) restricted to the observed dimensions
// obs (nil = all) — the MINDIST bound of Roussopoulos et al. behind the
// paper's geometric descent priority, marginalised for queries with
// missing values.
func (r Rect) MinDist2Obs(x []float64, obs []int) float64 {
	var s float64
	if obs == nil {
		for i := range r.Lo {
			switch {
			case x[i] < r.Lo[i]:
				d := r.Lo[i] - x[i]
				s += d * d
			case x[i] > r.Hi[i]:
				d := x[i] - r.Hi[i]
				s += d * d
			}
		}
		return s
	}
	for _, i := range obs {
		switch {
		case x[i] < r.Lo[i]:
			d := r.Lo[i] - x[i]
			s += d * d
		case x[i] > r.Hi[i]:
			d := x[i] - r.Hi[i]
			s += d * d
		}
	}
	return s
}

// Validate checks that bounds are finite and ordered, returning a
// descriptive error otherwise. Empty rectangles are reported as errors —
// they should never appear inside a built tree.
func (r Rect) Validate() error {
	if len(r.Lo) != len(r.Hi) {
		return fmt.Errorf("mbr: dims lo=%d hi=%d differ", len(r.Lo), len(r.Hi))
	}
	for i := range r.Lo {
		if math.IsNaN(r.Lo[i]) || math.IsNaN(r.Hi[i]) ||
			math.IsInf(r.Lo[i], 0) || math.IsInf(r.Hi[i], 0) {
			return fmt.Errorf("mbr: non-finite bound in dim %d", i)
		}
		if r.Lo[i] > r.Hi[i] {
			return fmt.Errorf("mbr: inverted bounds in dim %d: [%v,%v]", i, r.Lo[i], r.Hi[i])
		}
	}
	return nil
}

// String renders r compactly for diagnostics.
func (r Rect) String() string {
	s := "{"
	for i := range r.Lo {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("[%.3f,%.3f]", r.Lo[i], r.Hi[i])
	}
	return s + "}"
}
