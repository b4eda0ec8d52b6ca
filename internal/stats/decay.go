package stats

import "math"

// DecayFactor returns the exponential decay weight 2^(−λ·Δe) of the
// clustering extension (Section 4.2) for λ = lambda and Δe = epochs
// elapsed decay epochs. It is 1 exactly when decay is disabled (λ ≤ 0)
// or no time has passed, so multiplying by the factor is always safe.
// Decaying a cluster feature by this factor is exactly CF.Scale.
func DecayFactor(lambda float64, epochs int64) float64 {
	if lambda <= 0 || epochs <= 0 {
		return 1
	}
	// Clamp the exponent so even absurd epoch deltas yield a tiny but
	// positive factor (~1e-301) rather than underflowing to exactly 0,
	// which would turn stored weights into values the rebuild
	// validation rightly rejects.
	e := lambda * float64(epochs)
	if e > 1000 {
		e = 1000
	}
	return math.Exp2(-e)
}
