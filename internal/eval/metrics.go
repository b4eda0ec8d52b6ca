package eval

import "fmt"

// CurveArea returns the normalised area between two anytime curves —
// positive when a dominates b — a single number for "who wins and by how
// much" across the whole budget range (used when summarising figure
// reproductions).
func CurveArea(a, b *Curve) (float64, error) {
	if len(a.Acc) != len(b.Acc) {
		return 0, fmt.Errorf("eval: curves have %d and %d points", len(a.Acc), len(b.Acc))
	}
	var s float64
	for i := range a.Acc {
		s += a.Acc[i] - b.Acc[i]
	}
	return s / float64(len(a.Acc)), nil
}

// Oscillation quantifies the non-monotonicity of an anytime curve: the
// summed magnitude of accuracy *drops* between consecutive budgets. The
// paper observed oscillating glo curves on gender/covertype; this makes
// that observation measurable.
func Oscillation(c *Curve) float64 {
	var s float64
	for i := 1; i < len(c.Acc); i++ {
		if d := c.Acc[i-1] - c.Acc[i]; d > 0 {
			s += d
		}
	}
	return s
}
