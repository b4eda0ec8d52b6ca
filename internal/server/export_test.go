package server

import (
	"testing"
	"time"
)

// setCheckpointFloor lowers the log-size trigger's floor for one test, so
// a few hundred small records cross it.
func setCheckpointFloor(t testing.TB, floor int64) {
	prev := ckptFloor
	ckptFloor = floor
	t.Cleanup(func() { ckptFloor = prev })
}

// A follower's tail reconnects within milliseconds in tests, where
// primaries go away and come back on purpose.
func init() {
	tailBackoffMin, tailBackoffMax = 5*time.Millisecond, 50*time.Millisecond
}

// setSilenceTimeout lowers the tail's silence timeout for one test;
// every follower the test starts must have stopped its tail before the
// test ends.
func setSilenceTimeout(t testing.TB, d time.Duration) {
	prev := silenceTimeout
	silenceTimeout = d
	t.Cleanup(func() { silenceTimeout = prev })
}
