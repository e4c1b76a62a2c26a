package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestBaselineCurrent enforces, inside tier-1, the rule that every
// change leaves the virtual-time baseline untouched: the document built
// from this tree must equal the checked-in BENCH_baseline.json byte for
// byte. A change that moves a number on purpose regenerates the file
// (`make bench`) and says so.
func TestBaselineCurrent(t *testing.T) {
	doc, err := baseline(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := encode(&got, doc); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fresh baseline differs from BENCH_baseline.json; `make benchdiff` shows the cells that moved")
	}
}
