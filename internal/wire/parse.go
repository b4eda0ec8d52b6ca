package wire

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// The float parser. number reads a JSON number's decimal form as it
// checks its grammar; float turns that form into the nearest double by
// Clinger's exact path or by Eisel–Lemire (D. Lemire, "Number Parsing
// at a Gigabyte per Second", 2021), backed by exact integer arithmetic
// for a value that is a double or a halfway point itself, and says when
// none decides: a nonzero digit past the 19th, an exponent outside the
// table, a product too close to a halfway point. decoder.float hands
// those to strconv, the parser the package's tests hold this one to.

// decimal is a JSON number as its text spells it: ±man·10^exp, man
// holding its first 19 significant digits.
type decimal struct {
	lit     []byte // the text
	man     uint64
	exp     int
	neg     bool
	more    bool // a nonzero digit follows man's 19
	integer bool // no fraction and no exponent
}

// The range of q the table of powers of ten covers.
const (
	pow128Min = -348
	pow128Max = 347
)

// pow128 holds, for q in [pow128Min, pow128Max], ⌊10^q·2^(127−e)⌋ with
// e = ⌊log2(10^q)⌋, so 2^127 ≤ pow128 < 2^128: the top 128 bits of 10^q,
// truncated, as hi, lo. It is built once from exact powers of ten.
var pow128 = func() (t [pow128Max - pow128Min + 1][2]uint64) {
	set := func(q int, v *big.Int) {
		var b [16]byte
		v.FillBytes(b[:])
		t[q-pow128Min] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	p, v := big.NewInt(1), new(big.Int)
	for m := 0; m <= -pow128Min; m++ {
		if m <= pow128Max { // 10^m's top 128 bits
			if shift := p.BitLen() - 128; shift > 0 {
				set(m, v.Rsh(p, uint(shift)))
			} else {
				set(m, v.Lsh(p, uint(-shift)))
			}
		}
		if m > 0 { // 10^(−m) = 2^(127+L)/10^m·2^(−127−L), L the bit length of 10^m
			v.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			set(-m, v.Quo(v, p))
		}
		p.Mul(p, big.NewInt(10))
	}
	return t
}()

// float returns the double nearest n, or false where none of the exact
// path, Eisel–Lemire and dyadic decides.
func (n *decimal) float() (float64, bool) {
	f, ok := 0.0, true
	switch {
	case n.man == 0:
	case n.more:
		return 0, false
	case n.man < 1<<53 && -22 <= n.exp && n.exp <= 22: // both exact, so one rounding
		if f = float64(n.man); n.exp < 0 {
			f /= math.Pow10(-n.exp)
		} else {
			f *= math.Pow10(n.exp)
		}
	default:
		if f, ok = eiselLemire(n.man, n.exp); !ok {
			f, ok = dyadic(n.man, n.exp)
		}
	}
	if n.neg {
		f = -f
	}
	return f, ok
}

// dyadic returns man·10^q when that is m·2^q for an integer m below
// 2^64 — a double, or a halfway point, that a truncated product
// cannot tell from its neighbours — rounding m to a double once.
func dyadic(man uint64, q int) (float64, bool) {
	if q < -27 || q > 27 { // 5^27 < 2^64 < 5^28
		return 0, false
	}
	p5 := uint64(1)
	for range max(q, -q) {
		p5 *= 5
	}
	m, over := man/p5, man%p5 != 0
	if q > 0 {
		var hi uint64
		hi, m = bits.Mul64(man, p5)
		over = hi != 0
	}
	return math.Ldexp(float64(m), q), !over
}

// eiselLemire returns the double nearest man·10^q (man > 0), or false
// where the truncated product cannot tell which it is. The product
// w·pow128 of the normalised mantissa falls short of the exact one by
// less than w units of its last word: a decision stands unless adding
// that could carry into the bits kept, or the bits dropped read as an
// exact halfway point.
func eiselLemire(man uint64, q int) (float64, bool) {
	if q < pow128Min || q > pow128Max {
		return 0, false
	}
	t := &pow128[q-pow128Min]
	lz := bits.LeadingZeros64(man)
	w := man << lz
	hi, lo := bits.Mul64(w, t[0])
	carry := false
	if hi&0x1FF == 0x1FF && lo+w < lo { // widen by pow128's low word
		yHi, yLo := bits.Mul64(w, t[1])
		var c uint64
		lo, c = bits.Add64(lo, yHi, 0)
		hi += c
		carry = lo == math.MaxUint64 && yLo+w < yLo
	}
	msb := int(hi >> 63)
	// e2 is the biased exponent of a normal result; m takes its 53 bits
	// and one to round by. A subnormal keeps fewer, the exponent field 0.
	e2, shift := flog2pow10(q)+1086-lz+msb, uint(9+msb)
	if e2 < 1 {
		shift, e2 = shift+uint(1-e2), 1
	}
	below := uint64(1)<<shift - 1
	m := hi >> shift
	if carry && hi&below == below || lo == 0 && hi&below == 0 && m&3 == 1 {
		return 0, false
	}
	if m = (m + m&1) >> 1; m >= 1<<53 {
		m, e2 = m>>1, e2+1
	}
	if e2 >= 0x7FF {
		return 0, false // out of range: strconv reports it
	}
	return math.Float64frombits(uint64(e2-1)<<52 + m), true
}
