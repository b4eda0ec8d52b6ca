//go:build race

package server

// raceEnabled reports whether the tests run under the race detector,
// where sync.Pool drops items on purpose: allocation guards that count on
// a warm pool skip.
const raceEnabled = true
