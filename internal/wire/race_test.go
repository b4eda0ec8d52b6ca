//go:build race

package wire

// raceEnabled reports whether the tests run under the race detector,
// which makes strconv's slow paths some ten times slower: the number
// oracle draws fewer random literals there.
const raceEnabled = true
