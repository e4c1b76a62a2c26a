package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/conservative"
	"repro/internal/core"
	"repro/internal/run"
)

// newLiteral is run.New with the engine's idle passes run as the literal
// loop (pe.Runtime.LiteralIdle, which only tests set).
func newLiteral(s run.Spec, at run.Attach) (run.Engine, error) {
	eng, err := run.New(s, at)
	switch e := eng.(type) {
	case *core.Engine:
		e.LiteralIdle = true
	case *conservative.Engine:
		e.LiteralIdle = true
	case nil:
	default:
		err = fmt.Errorf("no LiteralIdle on a %T", eng)
	}
	return eng, err
}

// TestBaselineCurrent enforces, inside tier-1, the rule that every
// change leaves the virtual-time baseline untouched: the document built
// from this tree must equal the checked-in BENCH_baseline.json byte for
// byte. A change that moves a number on purpose regenerates the file
// (`make bench`) and says so. The document is built twice, the second
// time with every idle pass run as the literal loop it replaced: the
// checked-in bytes are what the unstepped engines produce, too.
func TestBaselineCurrent(t *testing.T) {
	want, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(run.Spec, run.Attach) (run.Engine, error){
		"stepped": run.New, "literal": newLiteral,
	} {
		doc, err := baseline(io.Discard, build)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := encode(&got, doc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: fresh baseline differs from BENCH_baseline.json; `make benchdiff` shows the cells that moved", name)
		}
	}
}
