package stats

import (
	"math"
	"math/rand"
	"testing"
)

func randomCF(rng *rand.Rand, d, n int) CF {
	cf := NewCF(d)
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for k := range x {
			x[k] = rng.NormFloat64()*(1+float64(k)) + 10*rng.Float64()
		}
		cf.Add(x)
	}
	return cf
}

// The frozen fast path must agree with the reference Gaussian density to
// floating-point reassociation error across random cluster features.
func TestFrozenLogPDFMatchesGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(16)
		cf := randomCF(rng, d, 2+rng.Intn(50))
		g := cf.Gaussian()
		f := Freeze(&cf)
		for q := 0; q < 5; q++ {
			x := make([]float64, d)
			for k := range x {
				x[k] = rng.NormFloat64() * 20
			}
			want := g.LogPDF(x)
			got := f.LogPDF(x)
			if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("trial %d: frozen %v vs gaussian %v (diff %g)", trial, got, want, got-want)
			}
		}
	}
}

// Same agreement for the marginal (missing-value) path, including the
// empty-observation contract.
func TestFrozenLogPDFObsMatchesGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		d := 2 + rng.Intn(12)
		cf := randomCF(rng, d, 3+rng.Intn(40))
		g := cf.Gaussian()
		f := Freeze(&cf)
		x := make([]float64, d)
		for k := range x {
			x[k] = rng.NormFloat64() * 5
		}
		var obs []int
		for k := 0; k < d; k++ {
			if rng.Float64() < 0.6 {
				obs = append(obs, k)
			}
		}
		want := g.LogPDFObs(x, obs)
		got := f.LogPDFObs(x, obs)
		if obs == nil {
			if got != f.LogPDF(x) {
				t.Fatalf("nil obs must mean all dims")
			}
			continue
		}
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("trial %d: frozen obs %v vs gaussian obs %v", trial, got, want)
		}
	}
	cf := randomCF(rand.New(rand.NewSource(3)), 3, 10)
	f := Freeze(&cf)
	if got := f.LogPDFObs([]float64{1, 2, 3}, []int{}); got != 0 {
		t.Fatalf("empty obs = %v, want 0 (empty product)", got)
	}
}

// TestFrozenMarginalEveryMask holds the frozen marginal — the full
// normaliser plus what the missing dimensions give back, taken from the
// inverse variances — to the unfrozen Gaussian's, which sums only the
// observed dimensions' log variances, within 1e-12 relative: random
// Gaussians of 1–6 dimensions, frozen from moments and from cluster
// features of 1–4 points, some variances below the floor, under every
// obs mask. An empty obs is 0 exactly.
func TestFrozenMarginalEveryMask(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for dim := 1; dim <= 6; dim++ {
		for trial := 0; trial < 20; trial++ {
			var g Gaussian
			var f FrozenGaussian
			if trial%2 == 0 {
				g = Gaussian{Mean: make([]float64, dim), Var: make([]float64, dim)}
				for i := range g.Mean {
					g.Mean[i] = 3 * rng.NormFloat64()
					switch rng.Intn(4) {
					case 0:
						g.Var[i] = VarianceFloor * rng.Float64() // floored
					default:
						g.Var[i] = 0.01 + 4*rng.Float64()
					}
				}
				f = g.Freeze()
			} else {
				cf := randomCF(rng, dim, 1+rng.Intn(4)) // one point: every variance floored
				g, f = cf.Gaussian(), Freeze(&cf)
			}
			x := make([]float64, dim)
			for i := range x {
				x[i] = g.Mean[i] + rng.NormFloat64()*math.Sqrt(max(g.Var[i], VarianceFloor))*2
			}
			for mask := 0; mask < 1<<dim; mask++ {
				obs := []int{}
				for i := 0; i < dim; i++ {
					if mask&(1<<i) != 0 {
						obs = append(obs, i)
					}
				}
				got, want := f.LogPDFObs(x, obs), g.LogPDFObs(x, obs)
				if mask == 0 {
					if got != 0 {
						t.Fatalf("dim %d: empty obs gives %v, want 0", dim, got)
					}
					continue
				}
				if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("dim %d trial %d obs %v: frozen marginal %v, Gaussian's %v (diff %g)", dim, trial, obs, got, want, got-want)
				}
			}
		}
	}
}

// Freezing a Gaussian directly and round-tripping must preserve moments.
func TestFreezeRoundTrip(t *testing.T) {
	g := Gaussian{Mean: []float64{1, -2, 3}, Var: []float64{0.5, 2, 1e-12}}
	f := g.Freeze()
	back := f.Gaussian()
	for i := range g.Mean {
		if back.Mean[i] != g.Mean[i] {
			t.Fatalf("mean[%d] %v != %v", i, back.Mean[i], g.Mean[i])
		}
	}
	// The degenerate variance must come back clamped to the floor.
	if math.Abs(back.Var[2]-VarianceFloor) > 1e-24 {
		t.Fatalf("variance floor not applied: %v", back.Var[2])
	}
}

// FreezeInto must leave, in vectors it reuses, exactly the bits
// FrozenFromMoments derives from the feature's Mean and Variance — what
// Freeze was before it became FreezeInto on a zero value — whatever dst
// held before: another feature's freeze, another dimension, an empty
// feature's.
func TestFreezeIntoMatchesMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var dst FrozenGaussian
	for i := 0; i < 500; i++ {
		cf := randomCF(rng, 1+rng.Intn(3)*5, rng.Intn(4)) // 0–3 points: empty and floored variances too
		mean := dst.Mean
		FreezeInto(&dst, &cf)
		if len(mean) == cf.Dim() && &mean[0] != &dst.Mean[0] {
			t.Fatalf("FreezeInto replaced a mean vector of the right dimension")
		}
		want := FrozenFromMoments(cf.Mean(), cf.Variance())
		if cf.N > 0 {
			want.LogN = math.Log(cf.N)
		}
		for name, pair := range map[string][2][]float64{
			"Mean": {dst.Mean, want.Mean}, "InvVar": {dst.InvVar, want.InvVar},
			"LogN, logNorm": {{dst.LogN, dst.logNorm}, {want.LogN, want.logNorm}},
		} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("%s: %d values, want %d", name, len(pair[0]), len(pair[1]))
			}
			for k := range pair[0] {
				if math.Float64bits(pair[0][k]) != math.Float64bits(pair[1][k]) {
					t.Fatalf("n=%v dim %d: %s[%d] = %v, from moments %v", cf.N, cf.Dim(), name, k, pair[0][k], pair[1][k])
				}
			}
		}
	}
}

func TestObservedDimsInto(t *testing.T) {
	if obs, _ := ObservedDimsInto([]float64{1, 2, 3}, nil); obs != nil {
		t.Fatalf("fully observed must return nil, got %v", obs)
	}
	obs, scratch := ObservedDimsInto([]float64{1, math.NaN(), 3}, nil)
	if len(obs) != 2 || obs[0] != 0 || obs[1] != 2 {
		t.Fatalf("observed dims %v, want [0 2]", obs)
	}
	// All-missing must be non-nil empty (distinct from "all observed").
	obs, scratch = ObservedDimsInto([]float64{math.NaN(), math.NaN()}, scratch)
	if obs == nil || len(obs) != 0 {
		t.Fatalf("all-missing must be non-nil empty, got %v", obs)
	}
	// Reuse must not allocate a new backing array once grown.
	obs, _ = ObservedDimsInto([]float64{math.NaN(), 5}, scratch)
	if len(obs) != 1 || obs[0] != 1 {
		t.Fatalf("reuse produced %v", obs)
	}
}

// --- Micro-benchmarks: frozen vs unfrozen log density -------------------

func benchmarkLogPDF(b *testing.B, frozen bool, d int) {
	rng := rand.New(rand.NewSource(7))
	cf := randomCF(rng, d, 100)
	x := make([]float64, d)
	for k := range x {
		x[k] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	if frozen {
		f := Freeze(&cf)
		for i := 0; i < b.N; i++ {
			_ = f.LogPDF(x)
		}
		return
	}
	for i := 0; i < b.N; i++ {
		g := cf.Gaussian() // the seed hot path re-derived this per entry
		_ = g.LogPDF(x)
	}
}

func BenchmarkLogPDFUnfrozen16(b *testing.B) { benchmarkLogPDF(b, false, 16) }
func BenchmarkLogPDFFrozen16(b *testing.B)   { benchmarkLogPDF(b, true, 16) }
