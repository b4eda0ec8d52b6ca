package server

import "testing"

// setCheckpointFloor lowers the log-size trigger's floor for one test, so
// a few hundred small records cross it.
func setCheckpointFloor(t testing.TB, floor int64) {
	prev := ckptFloor
	ckptFloor = floor
	t.Cleanup(func() { ckptFloor = prev })
}
