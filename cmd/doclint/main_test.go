package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestLintDir runs the lint over testdata/lintme: an undocumented
// function and an undocumented method of an exported two-parameter
// generic type are reported; the methods of an unexported one and a
// block-documented constant group are not.
func TestLintDir(t *testing.T) {
	var out bytes.Buffer
	n, err := lintDir(&out, "testdata/lintme")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		_, msg, _ := strings.Cut(line, ": ")
		got = append(got, msg)
	}
	want := []string{"function Undocumented has no doc comment", "function Pair.Swap has no doc comment"}
	if n != len(want) || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("lintDir reported %d:\n%s\nwant:\n%s", n, out.String(), strings.Join(want, "\n"))
	}
}
