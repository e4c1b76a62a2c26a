package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExamplesRun builds and runs every program under examples/ — the
// README's five `go run ./examples/...` lines. Each main ends in
// log.Fatal when its run disagrees with the sequential oracle, so a
// non-zero exit is a failed example.
func TestExamplesRun(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no examples found")
	}
	for _, d := range dirs {
		t.Run(d.Name(), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+d.Name()).CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", d.Name(), err, out)
			}
		})
	}
}

var (
	flagDef    = regexp.MustCompile(`flag\.\w+\((?:&[\w.\[\]]+,\s*)?"([\w-]+)"`)
	makeTarget = regexp.MustCompile(`(?m)^([A-Za-z][\w-]*):`)
)

// TestDocCommandsExist keeps the commands the documents show runnable:
// every `go run ./…` line inside a code fence of README.md and
// EXPERIMENTS.md must name a package directory of this module and only
// flags that command defines, and every `make …` line a target of the
// Makefile. A renamed flag or a deleted command then fails tier-1 and
// does not wait for a reader to trip over it.
func TestDocCommandsExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	flagsOf := map[string]map[string]bool{} // by package directory
	flags := func(dir string) map[string]bool {
		if flagsOf[dir] == nil {
			flagsOf[dir] = map[string]bool{}
			srcs, _ := filepath.Glob(filepath.Join(dir, "*.go"))
			for _, src := range srcs {
				data, err := os.ReadFile(src)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range flagDef.FindAllStringSubmatch(string(data), -1) {
					flagsOf[dir][m[1]] = true
				}
			}
		}
		return flagsOf[dir]
	}
	checked := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		text := strings.ReplaceAll(string(data), "\\\n", " ") // join continued lines
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if !fenced {
				continue
			}
			// One command: up to a comment, pipe, redirect or separator.
			cmd := strings.TrimPrefix(strings.TrimSpace(line), "$ ")
			if i := strings.IndexAny(cmd, "#|>;&"); i >= 0 {
				cmd = cmd[:i]
			}
			words := strings.Fields(cmd)
			switch {
			case len(words) >= 3 && words[0] == "go" && words[1] == "run" && strings.HasPrefix(words[2], "./"):
				checked++
				dir := filepath.FromSlash(words[2])
				if mains, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(mains) == 0 {
					t.Errorf("%s: `%s`: no Go package at %s", doc, cmd, words[2])
					continue
				}
				for _, w := range words[3:] {
					name, _, _ := strings.Cut(strings.TrimLeft(w, "-"), "=")
					if strings.HasPrefix(w, "-") && name != "" && !flags(dir)[name] {
						t.Errorf("%s: `%s`: %s defines no flag -%s", doc, cmd, words[2], name)
					}
				}
			case len(words) >= 2 && words[0] == "make":
				checked++
				for _, w := range words[1:] {
					if !strings.Contains(w, "=") && !targets[w] { // VAR=value overrides aside
						t.Errorf("%s: `%s`: the Makefile has no target %s", doc, cmd, w)
					}
				}
			}
		}
	}
	if checked < 20 {
		t.Errorf("only %d fenced `go run` and `make` lines found: the extraction is broken", checked)
	}
}
