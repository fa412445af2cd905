package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestFixtureModule runs the gate over testdata/mod, whose cmd/app and
// nested tools/extra module reach the root package directly and
// internal/lib directly, through an interface, through a generic
// instantiation and through a closure. Exactly five findings must come
// back: the root package's unreached function, the unreached method
// and function of internal/lib, the keep directive on a reached
// function, and the keep directive without a reason. The build-tagged
// file and the kept function must not be reported.
func TestFixtureModule(t *testing.T) {
	findings, err := run(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		// file:line:col: key: message -> key: message
		parts := strings.SplitN(f, ": ", 2)
		if len(parts) != 2 {
			t.Fatalf("malformed finding %q", f)
		}
		got = append(got, parts[1])
	}
	const lib = "example.com/dead/internal/lib."
	want := []string{
		"example.com/dead.Unlinked: reached by no binary",
		lib + "Unreached: reached by no binary",
		lib + "Square.Perimeter: reached by no binary",
		lib + "Stale: stale //deadcode:keep: a binary reaches it",
		lib + "NoReason: //deadcode:keep needs a reason: the roadmap item or test that calls it",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

func TestAddSymbols(t *testing.T) {
	nm := []byte(strings.Join([]string{
		"  4a1000 T m/internal/a.Plain",
		"  4a1100 T m/internal/a.Collect[go.shape.struct { X m/internal/b.T }]",
		"  4a1200 R m/internal/a..dict.Collect[m/internal/b.T]",
		"  4a1300 T m/internal/a.(*List[go.shape.int]).Push",
		"  4a1400 T m/internal/a.Value.String",
		"  4a1500 T m/internal/a.Outer.func1.2",
		"  4a1600 T m/internal/a.(*Server).run.deferwrap1",
		"  4a1700 D m/internal/a.DataOnly",
		"  4a1800 T m/other.Plain",
		"  4a1900 T m.Root",
	}, "\n"))
	reached := map[string]bool{}
	addSymbols(reached, "m.", nm)
	addSymbols(reached, "m/internal/", nm)
	for _, key := range []string{
		"m.Root", "m/internal/a.Plain", "m/internal/a.Collect", "m/internal/a.List.Push",
		"m/internal/a.Value.String", "m/internal/a.Outer", "m/internal/a.Server.run",
	} {
		if !reached[key] {
			t.Errorf("%s not marked reached", key)
		}
	}
	for _, key := range []string{"m/internal/a.DataOnly", "m/other.Plain", "m/internal/b.T"} {
		if reached[key] {
			t.Errorf("%s marked reached", key)
		}
	}
}
