package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Expectation comments in testdata sources: the word `want` followed by
// one or more Go string literals. Each literal is a substring that one
// diagnostic reported on that line must contain; lines without a want
// comment must produce no diagnostics.
var (
	wantRE = regexp.MustCompile(`want((?:\s+"(?:[^"\\]|\\.)*")+)`)
	strRE  = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

type wantDiag struct {
	file    string
	line    int
	substr  string
	matched bool
}

// collectWants scans every .go file under root for want comments and
// returns one expectation per quoted substring.
func collectWants(t *testing.T, root string) []*wantDiag {
	t.Helper()
	var wants []*wantDiag
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, lit := range strRE.FindAllString(m[1], -1) {
				substr, err := strconv.Unquote(lit)
				if err != nil {
					t.Fatalf("%s:%d: bad want literal %s: %v", path, i+1, lit, err)
				}
				wants = append(wants, &wantDiag{
					file: filepath.ToSlash(path), line: i + 1, substr: substr,
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// testLoader is shared by the test cases, so the standard-library
// packages testdata/src and the module both import are type-checked
// once.
var testLoader = newLoader()

// TestTestdataDiagnostics runs the full suite over testdata/src and
// requires an exact bidirectional match: every diagnostic is expected
// by a want comment at its file:line, and every want comment is hit.
func TestTestdataDiagnostics(t *testing.T) {
	root := filepath.Join("testdata", "src")
	set, err := testLoader.load(root)
	if err != nil {
		t.Fatal(err)
	}
	diags := runLint(set)
	wants := collectWants(t, root)
	if len(wants) == 0 {
		t.Fatal("no want comments found under testdata/src")
	}

	analyzersSeen := map[string]bool{}
	for _, d := range diags {
		analyzersSeen[d.analyzer] = true
		if d.pos.Line <= 0 || d.pos.Column <= 0 {
			t.Errorf("%s: %s: diagnostic without a full position: %s", d.pos, d.analyzer, d.message)
		}
		file := filepath.ToSlash(d.pos.Filename)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == file && w.line == d.pos.Line && strings.Contains(d.message, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic %s: %s: %s", d.pos, d.analyzer, d.message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
	// Every analyzer — and the directive checker guarding the escape
	// hatch — must be exercised by the corpus, so a silently dead
	// analyzer fails the suite.
	for _, a := range analyzers {
		if !analyzersSeen[a.name] {
			t.Errorf("analyzer %q produced no diagnostics over testdata/src", a.name)
		}
	}
	if !analyzersSeen["directive"] {
		t.Error("directive checking produced no diagnostics over testdata/src")
	}
}

// TestRepoLintCleanAndRacePackages type-checks the whole module, which
// is the same work `make lint` does: the tree must lint at zero
// findings, and the derived race-package list must cover the
// concurrency-bearing packages while honouring excludes.
func TestRepoLintCleanAndRacePackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	set, err := testLoader.load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags := runLint(set)
	for _, d := range diags {
		t.Errorf("repo is not lint-clean: %s: %s: %s", d.pos, d.analyzer, d.message)
	}

	pkgs := racePackages(set, map[string]bool{"internal/nn": true})
	got := map[string]bool{}
	for _, p := range pkgs {
		got[p] = true
	}
	// The sanctioned concurrency homes are roots; core and
	// experiments import them transitively.
	for _, p := range []string{
		"./internal/parallel/", "./internal/batch/", "./internal/serve/",
		"./internal/dist/", "./internal/core/", "./internal/experiments/",
	} {
		if !got[p] {
			t.Errorf("race package list is missing %s (got %v)", p, pkgs)
		}
	}
	// Excluded and concurrency-free packages must stay out.
	for _, p := range []string{"./internal/nn/", "./internal/rng/", "./internal/theory/"} {
		if got[p] {
			t.Errorf("race package list wrongly contains %s", p)
		}
	}
}
