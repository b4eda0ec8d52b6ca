package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// strconvFloat is the formatter appendFloat replaced, kept as its
// oracle: strconv's shortest digits in the layout encoding/json picks,
// with the exponent's leading zero dropped.
func strconvFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// checkFloat holds appendFloat to the oracle on f.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	var a, b [32]byte
	if got, want := appendFloat(a[:0], f), strconvFloat(b[:0], f); !bytes.Equal(got, want) {
		t.Fatalf("%#x: appendFloat %q, strconv %q", math.Float64bits(f), got, want)
	}
}

// around returns f and its neighbours one ulp away.
func around(f float64) []float64 {
	return []float64{math.Nextafter(f, math.Inf(-1)), f, math.Nextafter(f, math.Inf(1))}
}

// TestAppendFloatMatchesStrconv: the formatter against the oracle, both
// signs, on hardFloats, zero, the smallest and largest subnormal and
// MaxFloat64, every power of two, every power of ten and its ulp
// neighbours, the two layout switches and 2^53 with theirs, 2^53−1 and
// 2^53+2; then 2^20 seeded random bit patterns.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	cases := append([]float64{math.Copysign(0, -1), math.Float64frombits(1), math.Float64frombits(cMin - 1),
		math.MaxFloat64, 1<<53 - 1, 1<<53 + 2}, hardFloats...)
	for _, f := range [...]float64{1e-6, 1e21, 1 << 53} {
		cases = append(cases, around(f)...)
	}
	for e := qMin; e <= 1023; e++ {
		cases = append(cases, math.Ldexp(1, e))
	}
	for k := -323; k <= 308; k++ {
		f, _ := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		cases = append(cases, around(f)...)
	}
	for _, f := range cases {
		checkFloat(t, f)
		checkFloat(t, -f)
	}
	rng := rand.New(rand.NewSource(36))
	for range 1 << 20 {
		checkFloat(t, math.Float64frombits(rng.Uint64()))
	}
}

// TestFloatScales checks the formatter's integer logarithms and its
// table of powers of ten against exact arithmetic over their range.
func TestFloatScales(t *testing.T) {
	pow10 := func(m int) *big.Rat { // 10^m
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(m, -m))), nil)
		if m < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	pow2 := func(e int) *big.Rat { // 2^e
		p := new(big.Int).Lsh(big.NewInt(1), uint(max(e, -e)))
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	// floorLog10 is ⌊log10 x⌋, stepped from a guess.
	floorLog10 := func(x *big.Rat, k int) int {
		for x.Cmp(pow10(k)) < 0 {
			k--
		}
		for x.Cmp(pow10(k+1)) >= 0 {
			k++
		}
		return k
	}
	for q := qMin; q <= 971; q++ {
		v := pow2(q)
		if k := flog10pow2(q); k != floorLog10(v, k) {
			t.Fatalf("flog10pow2(%d) = %d", q, k)
		}
		v.Mul(v, big.NewRat(3, 4))
		if k := flog10threeQuartersPow2(q); k != floorLog10(v, k) {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d", q, k)
		}
	}
	lo, hi := new(big.Int).Lsh(big.NewInt(1), 125), new(big.Int).Lsh(big.NewInt(1), 126)
	for k := kMin; k <= kMax; k++ {
		r := flog2pow10(-k) - 125
		if p := pow10(-k); p.Cmp(pow2(r+125)) < 0 || p.Cmp(pow2(r+126)) >= 0 {
			t.Fatalf("flog2pow10(%d) = %d", -k, r+125)
		}
		gk := new(big.Int).Lsh(new(big.Int).SetUint64(gTable[k-kMin][0]), 63)
		gk.Or(gk, new(big.Int).SetUint64(gTable[k-kMin][1]))
		// (g−1)·2^r < 10^(−k) ≤ g·2^r
		scaled := new(big.Rat).Mul(pow10(-k), pow2(-r))
		if gk.Cmp(lo) < 0 || gk.Cmp(hi) >= 0 || new(big.Rat).SetInt(gk).Cmp(scaled) < 0 ||
			new(big.Rat).SetInt(new(big.Int).Sub(gk, big.NewInt(1))).Cmp(scaled) >= 0 {
			t.Fatalf("g(%d) = %v, 10^%d·2^%d = %v", k, gk, -k, -r, scaled.FloatString(3))
		}
	}
}

// FuzzAppendFloat: eight bytes as a double's bits, every pattern the
// fuzzer reaches against the oracle.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range hardFloats {
		f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var b [8]byte
		copy(b[:], raw)
		checkFloat(t, math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
	})
}
