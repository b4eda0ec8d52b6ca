package wire

import (
	"math"
	"math/big"
	"math/bits"
)

// The float formatter. Schubfach (R. Giulietti, "The Schubfach way to
// render doubles", 2020) finds the decimal of fewest digits that reads
// back as the double, the closest to it among those, and the even one
// on a tie: strconv's shortest digits. appendFloat lays them out as
// ES6 does. The package's tests hold it to strconv.AppendFloat byte for
// byte.

// A finite double is c·2^q: c is the significand with its implicit bit
// and q ≥ qMin; a normal one's c is at least cMin.
const (
	qMin = -1074
	cMin = 1 << 52
)

// The range of the decimal exponent k the formatter scales by: k is
// ⌊log10(2^q)⌋, or ⌊log10(¾·2^q)⌋ at the bottom of a binade.
const (
	kMin = -324
	kMax = 292
)

// gTable holds, for k in [kMin, kMax], the 126-bit g(k) = ⌈10^(−k)·2^(−r)⌉
// with r = ⌊log2(10^(−k))⌋ − 125, so 2^125 ≤ g(k) < 2^126, split as
// hi·2^63 + lo. It is built once from exact powers of ten.
var gTable = func() (g [kMax - kMin + 1][2]uint64) {
	set := func(k int, v *big.Int) {
		g[k-kMin] = [2]uint64{new(big.Int).Rsh(v, 63).Uint64(), v.Uint64() &^ (1 << 63)}
	}
	one, ten := big.NewInt(1), big.NewInt(10)
	p, v, rem := big.NewInt(1), new(big.Int), new(big.Int)
	for m := 0; m <= -kMin; m++ { // 10^m: its top 126 bits, rounded up
		if shift := p.BitLen() - 126; shift <= 0 {
			v.Lsh(p, uint(-shift))
		} else if v.Rsh(p, uint(shift)); rem.Lsh(v, uint(shift)).Cmp(p) != 0 {
			v.Add(v, one)
		}
		set(-m, v)
		if m > 0 && m <= kMax { // 10^(−m) = 1/10^m: 2^(125+L)/10^m, rounded up
			v.Lsh(one, uint(125+p.BitLen()))
			if v.QuoRem(v, p, rem); rem.Sign() != 0 {
				v.Add(v, one)
			}
			set(m, v)
		}
		p.Mul(p, ten)
	}
	return g
}()

// flog10pow2 is ⌊log10(2^e)⌋, exact over the exponents used here, as
// are the two below.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

// flog10threeQuartersPow2 is ⌊log10(¾·2^e)⌋.
func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

// flog2pow10 is ⌊log2(10^e)⌋.
func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// rop is cp·g·2^(−127) rounded to odd: its integer part, with the
// last bit set when a fraction was dropped.
func rop(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	return y1 + z>>63 | (z&(1<<63-1)+1<<63-1)>>63
}

// shortest returns the shortest decimal d·10^e that reads back as c·2^q
// (c > 0), d without a trailing zero.
func shortest(q int, c uint64) (d uint64, e int) {
	d, e = schubfach(q, c)
	for d%10 == 0 {
		d, e = d/10, e+1
	}
	return d, e
}

// schubfach is the paper's figure 7 with figure 9's integer steps. It
// scales the rounding interval of v = c·2^q by 10^(−k), so the interval
// holds at least one integer and at most one multiple of ten. A
// multiple of ten in it is the one shorter decimal; otherwise s or s+1,
// the integers either side of v, whichever is in the interval and, if
// both are, closer (even on a tie). The scaled values carry two
// fraction bits: vb for v, vbl and vbr for the interval's ends.
func schubfach(q int, c uint64) (uint64, int) {
	out := c & 1 // an odd significand's interval excludes its ends
	cb := c << 2
	cbr, cbl, k := cb+2, cb-2, flog10pow2(q)
	if c == cMin && q > qMin { // the bottom of a binade: the gap below is half
		cbl, k = cb-1, flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	gk := &gTable[k-kMin]
	vb, vbl, vbr := rop(gk, cb<<h), rop(gk, cbl<<h), rop(gk, cbr<<h)
	s := vb >> 2
	// The paper tries the multiple of ten only from s ≥ 100, which keeps
	// the second digit Java's format wants; the shortest digits do not.
	if s >= 10 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// digitPairs is "00" … "99", two digits written at once.
const digitPairs = "00010203040506070809" + "10111213141516171819" + "20212223242526272829" +
	"30313233343536373839" + "40414243444546474849" + "50515253545556575859" + "60616263646566676869" +
	"70717273747576777879" + "80818283848586878889" + "90919293949596979899"

// putDigits writes the decimal digits of d < 10^17 at the end of buf
// and returns where they start: the low eight and the rest as two
// 32-bit halves, two digits a step.
func putDigits(buf *[17]byte, d uint64) int {
	i := len(buf)
	rest := uint32(d)
	if d >= 1e8 {
		hi := d / 1e8
		lo := uint32(d - hi*1e8)
		for range 4 {
			p := lo % 100 * 2
			lo /= 100
			i -= 2
			buf[i], buf[i+1] = digitPairs[p], digitPairs[p+1]
		}
		rest = uint32(hi)
	}
	for rest >= 10 {
		p := rest % 100 * 2
		rest /= 100
		i -= 2
		buf[i], buf[i+1] = digitPairs[p], digitPairs[p+1]
	}
	if rest > 0 {
		i--
		buf[i] = byte('0' + rest)
	}
	return i
}

// appendFloat appends f in encoding/json's format, which is ES6's:
// shortest round-trip digits, positional unless the exponent is below
// -6 or at least 21, and no padding of a one-digit exponent. JSON has
// no non-finite numbers: those become null.
func appendFloat(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	bq, c := int(b>>52&0x7FF), b&(cMin-1)
	if bq == 0x7FF {
		return append(dst, "null"...)
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	q := qMin
	if bq > 0 {
		q, c = bq-1075, c|cMin
	} else if c == 0 {
		return append(dst, '0')
	}
	d, e := shortest(q, c)
	var buf [17]byte
	digits := buf[putDigits(&buf, d):]
	switch lead := e + len(digits) - 1; { // the exponent of the first digit
	case lead < -6 || lead >= 21:
		dst = append(dst, digits[0])
		if len(digits) > 1 {
			dst = append(append(dst, '.'), digits[1:]...)
		}
		sign := byte('+')
		if lead < 0 {
			sign, lead = '-', -lead
		}
		dst = append(dst, 'e', sign)
		if lead >= 100 {
			dst, lead = append(dst, byte('0'+lead/100)), lead%100
			return append(dst, digitPairs[2*lead], digitPairs[2*lead+1])
		}
		if lead >= 10 {
			return append(dst, digitPairs[2*lead], digitPairs[2*lead+1])
		}
		return append(dst, byte('0'+lead))
	case e >= 0:
		dst = append(dst, digits...)
		for ; e > 0; e-- {
			dst = append(dst, '0')
		}
		return dst
	case lead >= 0:
		return append(append(append(dst, digits[:lead+1]...), '.'), digits[lead+1:]...)
	default:
		return append(append(dst, "0.00000"[:1-lead]...), digits...)
	}
}
