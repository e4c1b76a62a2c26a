package repro

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/simd"
	"repro/internal/simdcluster"
)

// TestExamplesRun builds and runs every program under examples/ — the
// README's two `go run ./examples/...` lines. Each main ends in
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
			for i := 0; i < len(srcs); i++ { // srcs grows below
				data, err := os.ReadFile(srcs[i])
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range flagDef.FindAllStringSubmatch(string(data), -1) {
					flagsOf[dir][m[1]] = true
				}
				// A daemon's logging flags come with the lifecycle it shares.
				if strings.Contains(string(data), "simd.Main(") {
					srcs = append(srcs, filepath.Join("internal", "simd", "daemon.go"))
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

// TestDocCurlRoutesExist keeps the documents' `curl` lines pointed at
// routes that exist: every one in a code fence of README.md and
// EXPERIMENTS.md is sent — method and path as written, to the router when
// it names port 8090 and to a daemon otherwise — and must be answered by
// a registered pattern. The mux's own 404 and 405 are plain text; a
// handler's refusal (the job id a walkthrough made up, the placeholder
// spec sent here in place of the documented one) is the JSON error body,
// and is fine. DESIGN.md ("Job API contract") is the table they follow.
func TestDocCurlRoutesExist(t *testing.T) {
	daemon := simd.NewServer(simd.Options{Workers: 1})
	defer daemon.Close()
	router := simdcluster.New(simdcluster.Options{})
	defer router.Close()
	handlers := map[bool]http.Handler{false: daemon.Handler(), true: router.Handler()}

	checked := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
				continue
			}
			words := strings.Fields(strings.TrimPrefix(line, "$ "))
			if !fenced || len(words) == 0 || words[0] != "curl" {
				continue
			}
			method, target := "", ""
			for i, w := range words[1:] {
				switch {
				case w == "-X" && i+2 < len(words):
					method = words[i+2]
				case w == "-d" && method == "":
					method = http.MethodPost
				case strings.HasPrefix(w, "localhost:") && target == "":
					target = w
				}
			}
			u, err := url.Parse("http://" + target)
			if target == "" || err != nil {
				t.Errorf("%s: `%s`: no URL found", doc, line)
				continue
			}
			if method == "" {
				method = http.MethodGet
			}
			checked++
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(method, u.RequestURI(), strings.NewReader(`{"model":"a placeholder, refused before anything runs"}`))
			handlers[u.Port() == "8090"].ServeHTTP(rec, req)
			if code := rec.Code; (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
				!strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
				t.Errorf("%s: `%s`: %s %s is not a registered route (HTTP %d)", doc, line, method, u.Path, code)
			}
		}
	}
	if checked < 15 {
		t.Errorf("only %d fenced `curl` lines found: the extraction is broken", checked)
	}
}
