package server

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package's run when a goroutine running this
// package's code outlives the tests: a follower whose tail was never
// stopped reconnects in the background, and its allocations land in
// whichever test runs next (the allocation guards read them).
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stray := strayGoroutines(2 * time.Second); stray != "" {
			fmt.Fprintf(os.Stderr, "goroutines running bayestree/internal/server code outlived the tests:\n\n%s", stray)
			code = 1
		}
	}
	os.Exit(code)
}

// strayGoroutines waits up to grace for every goroutine but the
// caller's that runs or was started by this package's code to exit, and
// returns the stacks of those still alive ("" when none is).
func strayGoroutines(grace time.Duration) string {
	deadline := time.Now().Add(grace)
	for {
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		var stray []string
		// The caller's goroutine comes first.
		for _, g := range bytes.Split(buf, []byte("\n\n"))[1:] {
			if bytes.Contains(g, []byte("bayestree/internal/server.")) {
				stray = append(stray, string(g))
			}
		}
		if len(stray) == 0 || time.Now().After(deadline) {
			return strings.Join(stray, "\n\n")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStrayGoroutinesNameAnUnstoppedTail plants the leak TestMain
// exists for, a follower whose tail is never stopped, and checks that
// the check reports its tail's stack until the tail stops.
func TestStrayGoroutinesNameAnUnstoppedTail(t *testing.T) {
	foll, err := NewFollowerServer(DurabilityOptions{Dir: t.TempDir()}, Config{}, deadURL(t))
	if err != nil {
		t.Fatal(err)
	}
	stray := strayGoroutines(50 * time.Millisecond)
	foll.stopTail()
	if !strings.Contains(stray, ").tail(") {
		t.Fatalf("the check missed a follower's running tail; it reported:\n%s", stray)
	}
}
