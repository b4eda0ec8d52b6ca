package wire

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: the 10,001st open bracket
// is an error, wherever it stands.
const maxDepth = 10000

// DecodeLine decodes data — one JSON object or null, and white space —
// into v as json.Unmarshal does: in place, so v is normally a zero value.
func DecodeLine(data []byte, v Value) error {
	d := decoder{data: data}
	if err := d.top(v); err != nil {
		return err
	}
	if d.peek(); d.pos < len(d.data) {
		return d.fail("trailing bytes after the value")
	}
	return nil
}

// DecodeBody decodes the first JSON value of data into v as the first
// Decode of a json.Decoder does: what follows the value is not looked at.
func DecodeBody(data []byte, v Value) error {
	d := decoder{data: data}
	return d.top(v)
}

// decoder walks one JSON text once, checking the syntax of everything it
// passes — the members it stores and the ones it skips — and storing as
// it goes. It stops at the first error: a caller rejects the text then,
// whatever was stored. No decoder is passed through an interface or a
// function value (closures capture it instead): either would move it to
// the heap on every line.
type decoder struct {
	data  []byte
	pos   int
	depth int
}

// top decodes the value the text starts with: an object, or a null,
// which stores nothing. Every other value is one encoding/json cannot
// store in a struct.
func (d *decoder) top(v Value) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	return d.object(v.shape())
}

// fail reports what is wrong where the decoder stands.
func (d *decoder) fail(what string) error {
	if d.pos >= len(d.data) {
		what = "unexpected end of input"
	}
	return fmt.Errorf("wire: %s at offset %d", what, d.pos)
}

// peek skips white space and returns the byte the decoder then stands
// at, 0 at the end of the text (a NUL byte is an error wherever peek is
// asked, like the end).
func (d *decoder) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// list walks what the bracket the decoder stands at holds — open says
// which bracket: the members of an object, the elements of an array —
// calling item, with its index, standing before each; it returns their
// number. The closing bracket is the opening one's byte plus two.
func (d *decoder) list(open byte, item func(i int) error) (int, error) {
	if d.peek() != open {
		return 0, d.fail("expected " + string(open))
	}
	d.pos++
	if d.depth++; d.depth > maxDepth {
		return 0, d.fail("exceeded max depth")
	}
	n := 0
	for d.peek() != open+2 || n > 0 {
		if err := item(n); err != nil {
			return n, err
		}
		n++
		if c := d.peek(); c == open+2 {
			break
		} else if c != ',' {
			return n, d.fail("expected a comma or a closing bracket")
		}
		d.pos++
	}
	d.pos++
	d.depth--
	return n, nil
}

// object walks the members of the object the decoder stands at. The
// value of a key that names a member of s — exactly or, failing that,
// case-insensitively, as encoding/json matches keys to fields — is
// stored where s says; any other member's value is checked and skipped.
// A repeated key is decoded again, over what the earlier one stored.
func (d *decoder) object(s shape) error {
	_, err := d.list('{', func(int) error {
		raw, plain, err := d.key()
		if err != nil {
			return err
		}
		if i := s.match(raw, plain); i >= 0 {
			return d.store(s.at[i])
		}
		return d.skip()
	})
	return err
}

// store decodes the value the decoder stands at into *at. Whatever the
// kind, a null stores nothing (a slice becomes nil) and a value of
// another JSON type is an error.
func (d *decoder) store(at any) error {
	switch p := at.(type) {
	case *int:
		return d.int(p)
	case *bool:
		return d.bool(p)
	case *float64:
		return d.float(p)
	case *string:
		return d.string(p)
	case *[]float64:
		return slice(d, p, d.float)
	case *[]int:
		return slice(d, p, d.int)
	case *ScoreList:
		return d.scores(p)
	case *[]MicroClusterJSON:
		return slice(d, p, func(m *MicroClusterJSON) error {
			if d.peek() == 'n' {
				return d.literal("null")
			}
			return d.object(m.shape())
		})
	}
	panic(fmt.Sprintf("wire: a shape points at a %T", at))
}

// key passes a member's name and colon and returns the name as str does.
func (d *decoder) key() (raw []byte, plain bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.fail("expected a member name")
	}
	if raw, plain, err = d.str(); err == nil && d.peek() != ':' {
		err = d.fail("expected a colon")
	}
	d.pos++
	return raw, plain, err
}

// skip checks and passes the value the decoder stands at, of whatever
// kind and depth: the value of a key no field takes. It keeps its own
// stack of open brackets instead of recursing — how deep such a value
// nests is the sender's choice, up to maxDepth.
func (d *decoder) skip() error {
	var open []byte
	for {
		var err error
		switch c := d.peek(); c {
		case '{', '[':
			d.pos++
			if d.depth++; d.depth > maxDepth {
				return d.fail("exceeded max depth")
			}
			if open = append(open, c); d.peek() != c+2 {
				if c == '{' {
					_, _, err = d.key()
				}
				if err != nil {
					return err
				}
				continue
			}
		case '"':
			_, _, err = d.str()
		case 't':
			err = d.literal("true")
		case 'f':
			err = d.literal("false")
		case 'n':
			err = d.literal("null")
		default:
			_, err = d.number()
		}
		// A value has ended, or an empty bracket waits to be closed:
		// close every bracket that ends here, then pass the comma and, in
		// an object, the next key.
		for err == nil {
			if len(open) == 0 {
				return nil
			}
			top, c := open[len(open)-1], d.peek()
			if c != top+2 && c != ',' {
				return d.fail("expected a comma or a closing bracket")
			}
			if d.pos++; c == ',' {
				if top == '{' {
					_, _, err = d.key()
				}
				break
			}
			open = open[:len(open)-1]
			d.depth--
		}
		if err != nil {
			return err
		}
	}
}

// literal passes word, whose first byte the decoder stands at.
func (d *decoder) literal(word string) error {
	if end := d.pos + len(word); end > len(d.data) || string(d.data[d.pos:end]) != word {
		return d.fail("invalid literal")
	}
	d.pos += len(word)
	return nil
}

// number passes a number in JSON's grammar and, in the same pass, reads
// its decimal form.
func (d *decoder) number() (n decimal, err error) {
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		n.neg = true
		i++
	}
	from := i
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		i = n.digits(data, i, 0)
	}
	n.integer = true
	if i > from && i < len(data) && data[i] == '.' {
		from, n.integer = i+1, false
		i = n.digits(data, from, -1)
	}
	if i > from && i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		sign := 1
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			if data[i] == '-' {
				sign = -1
			}
			i++
		}
		e := 0
		for from = i; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if e < 10000 { // past that the exponent only has to stay huge, as in strconv
				e = e*10 + int(data[i]-'0')
			}
		}
		n.exp, n.integer = n.exp+sign*e, false
	}
	if n.lit, d.pos = data[d.pos:i], i; i == from {
		return n, d.fail("expected a number")
	}
	return n, nil
}

// digits reads the decimal digits of data from i on into n and returns
// the index of the first byte that is not one. A digit n.man takes
// moves the exponent by step: 0 in the integer part, −1 in the fraction.
func (n *decimal) digits(data []byte, i, step int) int {
	man, exp, more := n.man, n.exp, n.more
	for ; i < len(data); i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		if man < 1e18 { // fewer than 19 significant digits so far
			man, exp = man*10+uint64(c), exp+step
		} else {
			exp, more = exp+step+1, more || c != 0
		}
	}
	n.man, n.exp, n.more = man, exp, more
	return i
}

// escapes pairs each letter a backslash may precede (u apart) with the
// byte the two denote.
const escapes = "\"\"\\\\//b\bf\fn\nr\rt\t"

// unescape returns the byte a backslash and e denote, 0 if none.
func unescape(e byte) byte {
	for i := 0; i < len(escapes); i += 2 {
		if escapes[i] == e {
			return escapes[i+1]
		}
	}
	return 0
}

// str passes the string the decoder stands at and returns what lies
// between its quotes as written, and whether that is plain: ASCII
// without escapes, which denotes itself.
func (d *decoder) str() (raw []byte, plain bool, err error) {
	start := d.pos + 1
	plain = true
	for d.pos = start; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], plain, nil
		case c == '\\':
			plain = false
			if d.pos++; d.pos == len(d.data) {
				break
			}
			if e := d.data[d.pos]; e == 'u' && d.pos+4 < len(d.data) && hex4(d.data[d.pos+1:]) >= 0 {
				d.pos += 4
			} else if unescape(e) == 0 {
				return nil, false, d.fail("invalid escape in a string")
			}
		case c < ' ':
			return nil, false, d.fail("control character in a string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, false, d.fail("unexpected end of input")
}

// hex4 is the value of the four hex digits s starts with, or -1.
func hex4(s []byte) rune {
	n, err := strconv.ParseUint(string(s[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(n)
}

// unquote appends to dst the text a string that has passed str denotes,
// as encoding/json reads it: escapes resolved, a surrogate pair joined,
// a lone surrogate and each byte of invalid UTF-8 replaced by U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i+2:])
			i += 6
			if 0xD800 <= r && r < 0xE000 {
				lo := rune(-1)
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					lo = hex4(raw[i+2:])
				}
				if r < 0xDC00 && 0xDC00 <= lo && lo < 0xE000 {
					r = (r-0xD800)<<10 | (lo - 0xDC00) + 0x10000
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			dst = utf8.AppendRune(dst, r)
		case c == '\\':
			dst = append(dst, unescape(raw[i+1]))
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// match returns the index in s of the member encoding/json stores the
// member named by raw in — the one whose name the key equals, else the
// first whose name it equals under Unicode simple case folding — or -1
// if there is none. A key of s is a name between quotes and a colon.
func (s *shape) match(raw []byte, plain bool) int {
	name := raw
	if !plain {
		var buf [64]byte
		name = unquote(buf[:0], raw)
	}
	for i, key := range s.keys {
		if string(name) == key[1:len(key)-2] {
			return i
		}
	}
	for i, key := range s.keys {
		if foldEqual(name, key[1:len(key)-2]) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key equals name, which is lower-case ASCII,
// under simple case folding. Two letters outside ASCII fold into it:
// U+017F, the long s, and U+212A, the Kelvin sign.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(name) {
			return false
		}
		c, size := rune(key[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRune(key[i:])
		}
		switch {
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		case c == 0x17F:
			c = 's'
		case c == 0x212A:
			c = 'k'
		}
		if c != rune(name[j]) {
			return false
		}
		i += size
	}
	return j == len(name)
}

// float stores a number, a number out of float64's range being an error.
// What n.float cannot decide, strconv does.
func (d *decoder) float(p *float64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	n, err := d.number()
	if err != nil {
		return err
	}
	if f, ok := n.float(); ok {
		*p = f
		return nil
	}
	if *p, err = strconv.ParseFloat(string(n.lit), 64); err != nil {
		return fmt.Errorf("wire: number %s does not fit a float64", n.lit)
	}
	return nil
}

// int stores an integer: a fraction or an exponent is an error too.
func (d *decoder) int(p *int) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	n, err := d.number()
	if err != nil {
		return err
	}
	limit := uint64(math.MaxInt)
	if n.neg {
		limit++
	}
	if !n.integer || n.exp != 0 || n.man > limit { // a dropped digit moved exp
		return fmt.Errorf("wire: number %s is not an integer that fits", n.lit)
	}
	if *p = int(n.man); n.neg {
		*p = -*p
	}
	return nil
}

// bool stores true or false.
func (d *decoder) bool(p *bool) error {
	switch d.peek() {
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.fail("expected true or false")
}

// string stores a string.
func (d *decoder) string(p *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		raw, plain, err := d.str()
		if err == nil && !plain {
			raw = unquote(nil, raw)
		}
		*p = string(raw)
		return err
	}
	return d.fail("expected a string")
}

// scores decodes a ScoreList: a fresh slice each time, a null element
// -Inf — and, because the rule was written as an UnmarshalJSON once and
// the oracle still is, a null for the whole list an empty list, not nil.
func (d *decoder) scores(p *ScoreList) error {
	*p = ScoreList{}
	if d.peek() == 'n' {
		return d.literal("null")
	}
	_, err := d.list('[', func(i int) error {
		*p = append(*p, math.Inf(-1))
		return d.float(&(*p)[i])
	})
	return err
}

// slice decodes an array into *p in place, each element by elem, as
// encoding/json does it: elements overwrite the slice from its start
// and a null for the whole array makes it nil — so does a repeated key
// replace — but an element that stores nothing (a null number) keeps
// what an earlier array left at its index, which the slice's spare
// capacity remembers; an empty array makes a new empty slice.
func slice[T any](d *decoder, p *[]T, elem func(*T) error) error {
	if d.peek() == 'n' {
		*p = nil
		return d.literal("null")
	}
	s := *p
	n, err := d.list('[', func(i int) error {
		if i >= cap(s) {
			grown := make([]T, i+1, 2*i+4)
			copy(grown, s[:cap(s)])
			s = grown
		} else if i >= len(s) {
			s = s[:i+1]
		}
		return elem(&s[i])
	})
	if *p = s[:n]; n == 0 {
		*p = []T{}
	}
	return err
}
