// Package lintme is doclint's test input: each declaration is marked
// with whether doclint must report it.
package lintme

func Undocumented() {} // reported

// Documented is not reported.
func Documented() {}

// pair is unexported, so its methods are internal API.
type pair[A, B any] struct {
	a A
	b B
}

func (p pair[A, B]) First() A { return p.a } // not reported

func (p *pair[A, B]) Second() B { return p.b } // not reported

// Pair is exported, so its methods are API.
type Pair[A, B any] struct{ p pair[A, B] }

func (p *Pair[A, B]) Swap() pair[B, A] { return pair[B, A]{p.p.b, p.p.a} } // reported

// Bounds are documented as a block, which covers every name in it.
const (
	Low  = 1
	High = 2
)
