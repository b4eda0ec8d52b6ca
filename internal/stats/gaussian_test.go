package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGaussianPDFMatchesClosedForm1D(t *testing.T) {
	g := Gaussian{Mean: []float64{2}, Var: []float64{4}}
	// N(2, 4) at x=2: 1/sqrt(2π·4)
	want := 1 / math.Sqrt(2*math.Pi*4)
	if got := math.Exp(g.LogPDF([]float64{2})); math.Abs(got-want) > 1e-12 {
		t.Errorf("PDF at mean = %v, want %v", got, want)
	}
	// At one standard deviation.
	want = math.Exp(-0.5) / math.Sqrt(2*math.Pi*4)
	if got := math.Exp(g.LogPDF([]float64{4})); math.Abs(got-want) > 1e-12 {
		t.Errorf("PDF at mean+σ = %v, want %v", got, want)
	}
}

func TestGaussianPDFFactorsOverDims(t *testing.T) {
	g := Gaussian{Mean: []float64{0, 1}, Var: []float64{1, 9}}
	g0 := Gaussian{Mean: []float64{0}, Var: []float64{1}}
	g1 := Gaussian{Mean: []float64{1}, Var: []float64{9}}
	x := []float64{0.3, -0.7}
	want := math.Exp(g0.LogPDF(x[:1])) * math.Exp(g1.LogPDF(x[1:]))
	if got := math.Exp(g.LogPDF(x)); math.Abs(got-want) > 1e-12*want {
		t.Errorf("product structure violated: %v vs %v", got, want)
	}
}

func TestKLSelfIsZero(t *testing.T) {
	g := Gaussian{Mean: []float64{1, -2}, Var: []float64{0.5, 3}}
	if got := KL(g, g); math.Abs(got) > 1e-12 {
		t.Errorf("KL(g,g) = %v, want 0", got)
	}
}

func TestKLKnownValue(t *testing.T) {
	// KL(N(0,1) || N(1,1)) = 0.5 per dimension.
	g := Gaussian{Mean: []float64{0}, Var: []float64{1}}
	h := Gaussian{Mean: []float64{1}, Var: []float64{1}}
	if got := KL(g, h); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("KL = %v, want 0.5", got)
	}
}

// Property: KL is non-negative for random diagonal Gaussians.
func TestKLNonNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		d := 1 + rng.Intn(6)
		g := randomGaussian(rng, d)
		h := randomGaussian(rng, d)
		if kl := KL(g, h); kl < -1e-9 {
			t.Fatalf("KL negative: %v for %v vs %v", kl, g, h)
		}
	}
}

func randomGaussian(rng *rand.Rand, d int) Gaussian {
	mean := make([]float64, d)
	variance := make([]float64, d)
	for i := 0; i < d; i++ {
		mean[i] = rng.NormFloat64() * 3
		variance[i] = 0.01 + rng.Float64()*5
	}
	return Gaussian{Mean: mean, Var: variance}
}

func TestLogSumExp(t *testing.T) {
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(empty) = %v, want -Inf", got)
	}
	got := LogSumExp([]float64{math.Log(1), math.Log(2), math.Log(3)})
	if math.Abs(got-math.Log(6)) > 1e-12 {
		t.Errorf("LogSumExp = %v, want log 6", got)
	}
	// Stability: huge shifts must not overflow.
	got = LogSumExp([]float64{1000, 1000})
	if math.Abs(got-(1000+math.Log(2))) > 1e-9 {
		t.Errorf("LogSumExp big = %v", got)
	}
	// All -Inf stays -Inf.
	if got := LogSumExp([]float64{math.Inf(-1), math.Inf(-1)}); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(-Inf...) = %v", got)
	}
}

func TestLogSumExpMatchesNaive(t *testing.T) {
	f := func(a [6]float64) bool {
		xs := make([]float64, 0, 6)
		for _, v := range a {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Keep values in a range where the naive sum is exact enough.
			xs = append(xs, math.Mod(v, 20))
		}
		var naive float64
		for _, x := range xs {
			naive += math.Exp(x)
		}
		got := LogSumExp(xs)
		return math.Abs(got-math.Log(naive)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mergeByHand is the merge as the serving path spelled it before it
// had one function: per class, the finite scores of the queried parts
// shifted by their log mixture weight, then LogSumExp (−Inf for a class
// no part scores).
func mergeByHand(parts [][]float64, weights []float64, totalW float64, classes int) []float64 {
	perClass := make([][]float64, classes)
	for p, scores := range parts {
		if scores == nil {
			continue
		}
		logW := math.Log(weights[p] / totalW)
		for c, sc := range scores {
			if !math.IsInf(sc, -1) {
				perClass[c] = append(perClass[c], logW+sc)
			}
		}
	}
	out := make([]float64, classes)
	for c := range out {
		if len(perClass[c]) == 0 {
			out[c] = math.Inf(-1)
		} else {
			out[c] = LogSumExp(perClass[c])
		}
	}
	return out
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMergeLogScores pins the one merge every tier answers through:
// exact on a single part, blind to parts and classes without mass, and
// bit for bit the expression it replaced.
func TestMergeLogScores(t *testing.T) {
	inf, unpinned := math.Inf(-1), math.NaN()
	a := []float64{-3.25, -0.5, -41.125}
	b := []float64{-1.5, -7.75, -2.0625}
	for _, tc := range []struct {
		name    string
		parts   [][]float64
		weights []float64
		// want is the exact result, class by class (unpinned where only
		// the by-hand merge says what it is); best the expected argmax.
		want []float64
		best int
	}{
		{name: "one part is returned bit for bit", parts: [][]float64{{-3.5818405382915546, inf, -287.0582759874238}},
			weights: []float64{137}, want: []float64{-3.5818405382915546, inf, -287.0582759874238}, best: 0},
		{name: "an unqueried part is skipped", parts: [][]float64{nil, a, nil}, weights: []float64{0, 9, 0}, want: a, best: 1},
		{name: "a class one part has no mass for comes from the others", parts: [][]float64{{-3.25, inf, -41.125}, b},
			weights: []float64{1, 3}, want: []float64{unpinned, math.Log(3.0/4) + -7.75, unpinned}, best: 0},
		{name: "a class no part has mass for stays -Inf", parts: [][]float64{{-3.25, inf, -41.125}, {-1.5, inf, -2.0625}},
			weights: []float64{1, 3}, want: []float64{unpinned, inf, unpinned}, best: 0},
		{name: "a zero-mass part contributes nothing", parts: [][]float64{a, b}, weights: []float64{5, 0}, want: a, best: 1},
		{name: "the earliest of tied classes wins", parts: [][]float64{{-2, -1, -1}, {-2, -1, -1}}, weights: []float64{2, 2},
			want: []float64{-2, -1, -1}, best: 1},
	} {
		var totalW float64
		for _, w := range tc.weights {
			totalW += w
		}
		got := make([]float64, len(tc.want))
		best := MergeLogScores(got, tc.parts, tc.weights, totalW)
		byHand := mergeByHand(tc.parts, tc.weights, totalW, len(tc.want))
		if !sameBits(got, byHand) {
			t.Errorf("%s: merged %v, by hand %v", tc.name, got, byHand)
		}
		for c, w := range tc.want {
			if !math.IsNaN(w) && math.Float64bits(got[c]) != math.Float64bits(w) {
				t.Errorf("%s: class %d merged to %v, want exactly %v", tc.name, c, got[c], w)
			}
		}
		if best != tc.best {
			t.Errorf("%s: best class %d, want %d", tc.name, best, tc.best)
		}
	}

	// Seeded inputs: any mix of parts, masses and empty classes merges to
	// the bits of the by-hand expression, and to the same argmax.
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 500; trial++ {
		classes, n := 1+rng.Intn(10), 1+rng.Intn(6)
		parts := make([][]float64, n)
		weights := make([]float64, n)
		var totalW float64
		for p := range parts {
			if rng.Intn(5) == 0 {
				continue // an empty shard: not queried, no mass
			}
			weights[p] = float64(1+rng.Intn(4000)) * math.Exp2(-float64(rng.Intn(3)))
			totalW += weights[p]
			parts[p] = make([]float64, classes)
			for c := range parts[p] {
				parts[p][c] = -rng.ExpFloat64() * 300
				if rng.Intn(6) == 0 {
					parts[p][c] = inf
				}
			}
		}
		if totalW == 0 {
			continue
		}
		got := make([]float64, classes)
		best := MergeLogScores(got, parts, weights, totalW)
		want := mergeByHand(parts, weights, totalW, classes)
		if !sameBits(got, want) {
			t.Fatalf("trial %d: merged %v, by hand %v", trial, got, want)
		}
		for c := range want {
			if want[c] > want[best] || c < best && want[c] == want[best] {
				t.Fatalf("trial %d: best class %d of %v", trial, best, want)
			}
		}
	}
}

func TestSilvermanBandwidth(t *testing.T) {
	// d=1: h = σ (4/3)^(1/5) n^(-1/5).
	h := SilvermanBandwidth([]float64{2}, 100, 1)
	want := 2 * math.Pow(4.0/3.0, 0.2) * math.Pow(100, -0.2)
	if math.Abs(h[0]-want) > 1e-12 {
		t.Errorf("Silverman 1D = %v, want %v", h[0], want)
	}
	// Bandwidth shrinks with n.
	h1 := SilvermanBandwidth([]float64{1}, 10, 2)
	h2 := SilvermanBandwidth([]float64{1}, 10000, 2)
	if h2[0] >= h1[0] {
		t.Errorf("bandwidth should shrink with n: %v vs %v", h1[0], h2[0])
	}
	// Degenerate sigma gets floored, n<1 clamps.
	h = SilvermanBandwidth([]float64{0}, 0, 1)
	if h[0] <= 0 {
		t.Errorf("degenerate bandwidth %v", h[0])
	}
}

// expArgs draws arguments for the Exp oracle tests: the special values,
// both sides of −746 and of −745.1332191019412, where math.Exp's last
// subnormal gives way to exact 0, and a wide spread of ordinary ones.
func expArgs(rng *rand.Rand, n int) []float64 {
	const last = -745.1332191019412
	xs := []float64{
		math.Inf(-1), math.Inf(1), math.NaN(), 0, math.Copysign(0, -1), 1, -1, 709.78, -math.MaxFloat64,
		-746, math.Nextafter(-746, 0), math.Nextafter(-746, math.Inf(-1)),
		last, math.Nextafter(last, 0), math.Nextafter(last, math.Inf(-1)), -745.0, -745.5,
	}
	for len(xs) < n {
		switch rng.Intn(3) {
		case 0:
			xs = append(xs, -744.9-1.3*rng.Float64())
		case 1:
			xs = append(xs, last+1e-12*rng.NormFloat64())
		default:
			xs = append(xs, -800+820*rng.Float64())
		}
	}
	return xs
}

// logSumExpOracle is LogSumExp calling math.Exp on every term.
func logSumExpOracle(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

// TestExpSkipMatchesMathExp holds Exp and LogSumExp, which skip
// math.Exp below −746, to the always-call forms bit for bit: on −Inf,
// NaN and the arguments on both sides of where math.Exp reaches 0, and
// on sums whose terms lie that far below their maximum.
func TestExpSkipMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	args := expArgs(rng, 200_000)
	for _, x := range args {
		if got, want := Exp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Exp(%v) = %v, math.Exp gives %v", x, got, want)
		}
	}
	for i := 0; i < 20_000; i++ {
		m := 50 * rng.NormFloat64()
		xs := make([]float64, 1+rng.Intn(8))
		for k := range xs {
			xs[k] = m + args[rng.Intn(len(args))]
		}
		if got, want := LogSumExp(xs), logSumExpOracle(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LogSumExp(%v) = %v, the oracle gives %v", xs, got, want)
		}
	}
}
