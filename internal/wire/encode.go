package wire

import (
	"strconv"
	"unicode/utf8"
)

// AppendJSON implements Appender.
func (r ClassifyRequest) AppendJSON(dst []byte) []byte { return appendDoc(dst, r.shape()) }

// AppendJSON implements Appender.
func (r InsertRequest) AppendJSON(dst []byte) []byte { return appendDoc(dst, r.shape()) }

// AppendJSON implements Appender.
func (r ClusterRequest) AppendJSON(dst []byte) []byte { return appendDoc(dst, r.shape()) }

// AppendJSON implements Appender.
func (r Result) AppendJSON(dst []byte) []byte { return appendDoc(dst, r.shape()) }

// AppendJSON implements Appender.
func (l ResultLine) AppendJSON(dst []byte) []byte { return appendDoc(dst, l.shape()) }

// AppendJSON implements Appender.
func (r ClusterResult) AppendJSON(dst []byte) []byte { return appendDoc(dst, r.shape()) }

// AppendJSON implements Appender.
func (l ClusterLine) AppendJSON(dst []byte) []byte { return appendDoc(dst, l.shape()) }

// AppendJSON implements Appender.
func (a InsertAck) AppendJSON(dst []byte) []byte { return appendDoc(dst, a.shape()) }

// AppendJSON implements Appender.
func (e Error) AppendJSON(dst []byte) []byte { return appendDoc(dst, e.shape()) }

// AppendJSON implements Appender.
func (l MicroClusterList) AppendJSON(dst []byte) []byte { return appendDoc(dst, l.shape()) }

// AppendMicroClusters appends the MicroClusterList of the n clusters
// at(0) … at(n-1) — for a caller that holds them in another type and
// would build a []MicroClusterJSON only to have it written.
func AppendMicroClusters(dst []byte, n int, at func(i int) MicroClusterJSON) []byte {
	dst = strconv.AppendInt(append(append(dst, '{'), microClusterListKeys[0]...), int64(n), 10)
	dst = append(append(dst, ','), microClusterListKeys[1]...)
	dst = appendList(dst, n, false, func(dst []byte, i int) []byte {
		m := at(i)
		return appendObject(dst, m.shape())
	})
	return append(dst, "}\n"...)
}

// appendDoc appends the object s describes as a document: with the
// newline a json.Encoder ends one with.
func appendDoc(dst []byte, s shape) []byte { return append(appendObject(dst, s), '\n') }

// appendObject appends the object s describes.
func appendObject(dst []byte, s shape) []byte {
	sep := byte('{')
	for i, key := range s.keys {
		if s.omit>>i&1 != 0 && empty(s.at[i]) {
			continue
		}
		dst = append(append(dst, sep), key...)
		sep = ','
		switch p := s.at[i].(type) {
		case *int:
			dst = strconv.AppendInt(dst, int64(*p), 10)
		case *bool:
			dst = strconv.AppendBool(dst, *p)
		case *float64:
			dst = appendFloat(dst, *p)
		case *string:
			dst = appendString(dst, *p)
		case *[]float64:
			dst = appendFloats(dst, *p)
		case *ScoreList:
			dst = appendFloats(dst, *p)
		case *[]int:
			dst = appendList(dst, len(*p), *p == nil, func(dst []byte, i int) []byte { return strconv.AppendInt(dst, int64((*p)[i]), 10) })
		case *[]MicroClusterJSON:
			dst = appendList(dst, len(*p), *p == nil, func(dst []byte, i int) []byte { return appendObject(dst, (*p)[i].shape()) })
		}
	}
	return append(dst, '}')
}

// empty reports whether the member at points to is one omitempty omits.
func empty(at any) bool {
	switch p := at.(type) {
	case *int:
		return *p == 0
	case *float64:
		return *p == 0
	case *string:
		return *p == ""
	case *ScoreList:
		return len(*p) == 0
	case *[]int:
		return len(*p) == 0
	}
	return false
}

// appendList appends the array of the n elements elem appends, or null
// for a nil slice.
func appendList(dst []byte, n int, isNil bool, elem func(dst []byte, i int) []byte) []byte {
	if isNil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, i)
	}
	return append(dst, ']')
}

func appendFloats(dst []byte, v []float64) []byte {
	return appendList(dst, len(v), v == nil, func(dst []byte, i int) []byte { return appendFloat(dst, v[i]) })
}

// appendString appends s quoted as encoding/json quotes it with HTML
// escaping on: the quote, the backslash and the control characters
// escaped — by a letter where escapes has one — and so <, > and &, and
// U+2028 and U+2029; each byte of invalid UTF-8 written as the escape of
// U+FFFD.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b, size := rune(s[i]), 1
		if b >= utf8.RuneSelf {
			b, size = utf8.DecodeRuneInString(s[i:])
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' && b != 0x2028 && b != 0x2029 &&
			(b != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		dst = append(append(dst, s[start:i]...), '\\')
		switch {
		case size > 1:
			dst = append(dst, 'u', '2', '0', '2', hex[b&0xF])
		case b == utf8.RuneError:
			dst = append(dst, "ufffd"...)
		case escapeLetter(byte(b)) != 0:
			dst = append(dst, escapeLetter(byte(b)))
		default:
			dst = append(dst, 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// escapeLetter is unescape's inverse: the letter that, after a
// backslash, denotes b, 0 if there is none.
func escapeLetter(b byte) byte {
	for i := 1; i < len(escapes); i += 2 {
		if escapes[i] == b {
			return escapes[i-1]
		}
	}
	return 0
}
