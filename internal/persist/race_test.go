//go:build race

package persist

// raceEnabled reports whether the tests run under the race detector,
// which allocates on its own account and slows a decode tenfold: the
// allocation guard skips and the differential test runs fewer mutations.
const raceEnabled = true
