package repro

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestLineBudget is `make loc-check` in tier-1: the lines of tracked
// non-test Go outside benchmark/ (what `make loc` counts, newlines as
// wc -l counts them) may not pass the Makefile's LOC_CEILING. It skips
// where git, or the checkout, is absent.
func TestLineBudget(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not found")
	}
	out, err := exec.Command("git", "ls-files", "*.go").Output()
	if err != nil {
		t.Skipf("not a git checkout: %v", err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^LOC_CEILING = (\d+)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("no LOC_CEILING in the Makefile")
	}
	ceiling, _ := strconv.Atoi(string(m[1]))
	lines := 0
	for _, f := range strings.Fields(string(out)) {
		if strings.HasSuffix(f, "_test.go") || strings.HasPrefix(f, "benchmark/") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines += bytes.Count(b, []byte("\n"))
	}
	t.Logf("%d non-test Go lines (ceiling %d)", lines, ceiling)
	if lines > ceiling {
		t.Errorf("%d non-test Go lines, over LOC_CEILING %d: remove lines, or raise the ceiling in the Makefile where a reviewer sees it", lines, ceiling)
	}
}
