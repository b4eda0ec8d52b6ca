package wire

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkParse holds the decoder's number path to strconv on lit, which
// must be a JSON number: as a float the same bits and the same verdict
// as strconv.ParseFloat, as an int the same value and verdict as
// strconv.ParseInt.
func checkParse(t *testing.T, lit string) {
	var f float64
	d := decoder{data: []byte(lit)}
	err := d.float(&f)
	if d.pos != len(lit) {
		t.Helper()
		t.Fatalf("%q: number stopped at %d", lit, d.pos)
	}
	want, wantErr := strconv.ParseFloat(lit, 64)
	if math.Float64bits(f) != math.Float64bits(want) || (err != nil) != (wantErr != nil) {
		t.Helper()
		t.Fatalf("%q: float %v (%#x, %v), strconv %v (%#x, %v)", lit, f, math.Float64bits(f), err,
			want, math.Float64bits(want), wantErr)
	}
	var n int
	d = decoder{data: []byte(lit)}
	err = d.int(&n)
	wantInt, wantErr := strconv.ParseInt(lit, 10, strconv.IntSize)
	if (err != nil) != (wantErr != nil) || err == nil && int64(n) != wantInt {
		t.Helper()
		t.Fatalf("%q: int %d (%v), strconv %d (%v)", lit, n, err, wantInt, wantErr)
	}
}

// exactDecimal is the exact decimal expansion of x, as d.ddde±x.
func exactDecimal(x *big.Float) string {
	s := x.Text('e', 1100)
	i := strings.IndexByte(s, 'e')
	return strings.TrimSuffix(strings.TrimRight(s[:i], "0"), ".") + s[i:]
}

// digitString is n random decimal digits, the first nonzero.
func digitString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + rng.Intn(10))
	}
	b[0] = byte('1' + rng.Intn(9))
	return string(b)
}

// TestParseNumberMatchesStrconv: the number path against strconv, both
// signs, on 2^20 seeded random bit patterns rendered 'g' -1, 'e' or
// 'f' at random precisions; the neighbours of every power of ten; the
// exact halfway points between a double and the next, and what reads
// them to 17, 19 and 20 digits either side; 19-, 20- and 30-digit
// mantissas; leading zeros; the edges of the range; integers either
// side of int's. Under the race detector a sixteenth of the random
// literals are drawn.
func TestParseNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	scale := 0 // log2 of the share of the random literals drawn
	if raceEnabled {
		scale = -4
	}
	check := func(lit string) {
		checkParse(t, lit)
		checkParse(t, "-"+lit)
	}
	for i := range 1 << (20 + scale) {
		f := math.Float64frombits(rng.Uint64())
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		switch i % 16 { // a long rendering costs strconv microseconds
		case 14:
			checkParse(t, strconv.FormatFloat(f, 'e', rng.Intn(25), 64))
		case 15:
			checkParse(t, strconv.FormatFloat(f, 'f', rng.Intn(25)-1, 64))
		default:
			checkParse(t, strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	for k := -330; k <= 308; k++ {
		f, _ := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		for _, g := range around(f) {
			g = math.Abs(g)
			check(strconv.FormatFloat(g, 'g', -1, 64))
			check(strconv.FormatFloat(g, 'e', 16, 64))
			check(strconv.FormatFloat(g, 'e', 19, 64))
		}
		check("1e" + strconv.Itoa(k))
		check("9.999999999999999999e" + strconv.Itoa(k))
	}
	// Halfway points, exact (a tie, to even), and cut to 17, 19 and 20
	// digits with one unit added or not: just below it and just above.
	for i := range 1 << (12 + scale) {
		f := math.Abs(math.Float64frombits(rng.Uint64()))
		if i%2 == 1 { // a binade whose halfway points have few digits
			f = math.Ldexp(1+rng.Float64(), 30+rng.Intn(40))
		}
		next := math.Nextafter(f, math.Inf(1))
		if math.IsInf(next, 0) || math.IsNaN(next) {
			continue
		}
		mid := new(big.Float).SetPrec(64).SetFloat64(f)
		mid.Add(mid, new(big.Float).SetFloat64(next))
		s := exactDecimal(mid.SetMantExp(mid, -1))
		check(s)
		mant, exp, _ := strings.Cut(s, "e")
		for _, digits := range []int{17, 19, 20} {
			if digits+1 < len(mant) {
				short := mant[:digits+1] + "e" + exp
				check(short)
				up, _ := new(big.Float).SetPrec(200).SetString(mant[:digits+1])
				up.Add(up, new(big.Float).SetPrec(200).SetFloat64(math.Pow10(1-digits)))
				check(up.Text('f', digits-1) + "e" + exp)
			}
		}
	}
	for range 1 << (12 + scale) {
		for _, n := range []int{19, 20, 30} {
			m, e := digitString(rng, n), strconv.Itoa(rng.Intn(720)-370)
			check(m + "e" + e)
			check(m[:1] + "." + m[1:] + "e" + e)
			if p := rng.Intn(n); p > 0 {
				check(m[:p] + "." + m[p:])
			}
		}
	}
	for k := range 400 {
		zeros := strings.Repeat("0", k)
		check("0." + zeros + "1")
		check("0." + zeros + digitString(rng, 17))
		check("0." + zeros + digitString(rng, 25) + "e" + strconv.Itoa(k))
	}
	for _, lit := range []string{
		"0", "0.0", "0e0", "0E-0", "0.000e999", "0e99999999999999999999", "1e99999999999999999999", "1e-99999999999999999999",
		"5e-324", "4.9406564584124654e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
		"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308", "2.225073858507201e-308",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1.797693134862315807e308",
		"1e400", "1e-400", "2e150", "1e308", "1e309", "1e-324", "1e-323", "3e-324", "9007199254740993",
		"9007199254740992", "9007199254740991", "18014398509481985", "1.00000000000000011102230246251565404236316680908203125",
		"9223372036854775807", "9223372036854775808", "9223372036854775809", "18446744073709551615",
		"18446744073709551616", "99999999999999999999", "10000000000000000000", "1000000000000000000",
		"1.0", "1e0", "1E+2", "123456789012345678901234567890", "0." + strings.Repeat("0", 1000) + "1e1001",
	} {
		check(lit)
	}
}

// TestParseScales checks the parser's table of powers of ten and the
// binary logarithm it scales by against exact arithmetic over the
// table's range, and the powers of ten the exact path scales by.
func TestParseScales(t *testing.T) {
	lo, hi := new(big.Int).Lsh(big.NewInt(1), 127), new(big.Int).Lsh(big.NewInt(1), 128)
	for q := pow128Min; q <= pow128Max; q++ {
		e := flog2pow10(q)
		// scaled = 10^q·2^(127−e), which must lie in [2^127, 2^128).
		ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		scaled := new(big.Rat).SetInt(ten)
		if q < 0 {
			scaled.Inv(scaled)
		}
		if two := new(big.Int).Lsh(big.NewInt(1), uint(max(127-e, e-127))); 127-e >= 0 {
			scaled.Mul(scaled, new(big.Rat).SetInt(two))
		} else {
			scaled.Quo(scaled, new(big.Rat).SetInt(two))
		}
		if scaled.Cmp(new(big.Rat).SetInt(lo)) < 0 || scaled.Cmp(new(big.Rat).SetInt(hi)) >= 0 {
			t.Fatalf("flog2pow10(%d) = %d", q, e)
		}
		// pow128 ≤ scaled < pow128 + 1
		p := new(big.Int).Lsh(new(big.Int).SetUint64(pow128[q-pow128Min][0]), 64)
		p.Or(p, new(big.Int).SetUint64(pow128[q-pow128Min][1]))
		if new(big.Rat).SetInt(p).Cmp(scaled) > 0 || new(big.Rat).SetInt(p.Add(p, big.NewInt(1))).Cmp(scaled) <= 0 {
			t.Fatalf("pow128(%d) = %v, 10^%d·2^%d = %v", q, p, q, 127-e, scaled.FloatString(3))
		}
	}
	for k := 0; k <= 22; k++ {
		if want := new(big.Float).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil)); want.Cmp(big.NewFloat(math.Pow10(k))) != 0 {
			t.Fatalf("math.Pow10(%d) = %v is not exact", k, math.Pow10(k))
		}
	}
}

// TestDyadic: the exact step after a refused product reads man·10^q
// only when it is m·2^q with m in 64 bits, rounding m once, to even on
// a tie; anything else stays undecided.
func TestDyadic(t *testing.T) {
	for _, c := range []struct {
		man uint64
		q   int
		f   float64
		ok  bool
	}{
		{10310158152570145, -1, 1031015815257014.5, true},
		{45035996273704965, -1, 4503599627370496, true}, // a halfway point, to even
		{45035996273704975, -1, 4503599627370498, true}, // and the next, to even upwards
		{10310158152570146, -1, 0, false},
		{9007199254740993, 0, 9007199254740992, true},
		{3, 20, 3e20, true},
		{1, 27, 1e27, true},
		{3, 27, 0, false}, // 3·5^27 needs 65 bits
		{1 << 63, 1, 0, false},
		{5, -28, 0, false},
	} {
		if f, ok := dyadic(c.man, c.q); ok != c.ok || ok && f != c.f {
			t.Errorf("dyadic(%d, %d) = %v, %v; want %v, %v", c.man, c.q, f, ok, c.f, c.ok)
		}
	}
}

// clusterStreamBodies are the bodies internal/server's clusterStream
// builds — 64 lines of {"x":[…],"budget":8} each, drawn after warm
// objects from the same eight drifting Gaussian sources, seed 1 — whose
// floats are cluster_stream's in shape: shortest digits in [0.1, 1).
func clusterStreamBodies(warm, bodies int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	centres, steps := make([][4]float64, 8), make([][4]float64, 8)
	for s := range centres {
		norm := 0.0
		for d := range centres[s] {
			centres[s][d], steps[s][d] = 0.2+0.6*rng.Float64(), rng.NormFloat64()
			norm += steps[s][d] * steps[s][d]
		}
		for d := range steps[s] {
			steps[s][d] *= 2e-6 / math.Sqrt(norm)
		}
	}
	object := func() []float64 {
		x := make([]float64, 4)
		for d, c := range centres[rng.Intn(len(centres))] {
			x[d] = c + 0.02*rng.NormFloat64()
		}
		for s := range centres {
			for d := range centres[s] {
				centres[s][d] += steps[s][d]
			}
		}
		return x
	}
	for range warm {
		object()
	}
	out := make([][]byte, bodies)
	for b := range out {
		for range 64 {
			out[b] = ClusterRequest{X: object(), Budget: 8}.AppendJSON(out[b])
		}
	}
	return out
}

// TestParseNumberFastPath pins the parse half of cluster_stream's write
// as a count: every number literal in clusterStream's bodies, and the
// shortest rendering of each of 2^20 seeded random finite doubles,
// subnormals among them, is decided by the exact path or Eisel–Lemire —
// none is left to strconv — and reads back as the double it renders.
func TestParseNumberFastPath(t *testing.T) {
	literals := 0
	for _, body := range clusterStreamBodies(20000, 256) {
		for i := 0; i < len(body); i++ {
			if c := body[i]; c != '-' && (c < '0' || c > '9') {
				continue
			}
			d := decoder{data: body, pos: i}
			n, err := d.number()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := n.float(); !ok {
				t.Errorf("%s: left to strconv", n.lit)
			}
			literals, i = literals+1, d.pos
		}
	}
	if want := 256 * 64 * 5; literals != want {
		t.Fatalf("%d literals in the bodies, want %d", literals, want)
	}
	rng := rand.New(rand.NewSource(42))
	slow := 0
	for range 1 << 20 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		d := decoder{data: strconv.AppendFloat(nil, f, 'g', -1, 64)}
		n, err := d.number()
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := n.float(); !ok {
			slow++
		} else if math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("%s read back as %v", n.lit, got)
		}
	}
	if slow > 0 {
		t.Errorf("%d shortest renderings of random doubles left to strconv, want 0", slow)
	}
}

// FuzzParseNumber: whatever bytes pass number, against strconv.
func FuzzParseNumber(f *testing.F) {
	for _, lit := range []string{"0", "-0", "1e400", "1e-400", "2e150", "5e-324", "2.4703282292062328e-324",
		"9007199254740993", "1.7976931348623159e308", "123456789012345678901234567890", "0.00001e-3", "9223372036854775808"} {
		f.Add([]byte(lit))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decoder{data: data}
		if n, err := d.number(); err == nil {
			checkParse(t, string(n.lit))
		}
	})
}

// BenchmarkDecodeClusterWindow decodes one 64-line /cluster body shaped
// like the repo benchmark's, line by line into zeroed requests as the
// server's NDJSON route does: ns/op over 64 is one line's decode, and
// the one allocation a line is its point.
func BenchmarkDecodeClusterWindow(b *testing.B) {
	body := clusterStreamBodies(20000, 1)[0]
	lines := bytes.SplitAfter(body[:len(body)-1], []byte("\n"))
	reqs := make([]ClusterRequest, len(lines))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, line := range lines {
			reqs[j] = ClusterRequest{}
			if err := DecodeLine(line, &reqs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
