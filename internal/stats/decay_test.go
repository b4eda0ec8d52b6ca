package stats

import (
	"math"
	"testing"
)

func TestDecayFactor(t *testing.T) {
	if f := DecayFactor(0, 10); f != 1 {
		t.Errorf("λ=0 factor %v, want 1", f)
	}
	if f := DecayFactor(1, 0); f != 1 {
		t.Errorf("Δe=0 factor %v, want 1", f)
	}
	if f := DecayFactor(1, 1); f != 0.5 {
		t.Errorf("λ=1 Δe=1 factor %v, want 0.5", f)
	}
	if f := DecayFactor(0.5, 4); f != 0.25 {
		t.Errorf("λ=0.5 Δe=4 factor %v, want 0.25", f)
	}
	// Extreme deltas stay positive (never underflow to exactly 0).
	if f := DecayFactor(10, 1<<40); f <= 0 || math.IsNaN(f) {
		t.Errorf("extreme decay factor %v must stay positive", f)
	}
}
