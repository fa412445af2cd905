// Command determlint is the repo's custom static-analysis suite: it
// enforces the determinism and serialization invariants the project
// has already paid to learn, at the source level, before a violation
// can ship. Run through `make lint` (gated in CI) as:
//
//	go run ./tools/determlint ./...
//
// Five analyzers, each encoding one invariant:
//
//	nondet    — math/rand imports and wall-clock/process-identity reads
//	            (time.Now, time.Since, os.Getpid, ...) in internal
//	            packages: randomness must flow through internal/rng and
//	            wall-clock must stay out of anything digested.
//	maporder  — range over a map feeding an ordered sink (append to an
//	            outer slice without a later sort, gob/json Encode, a
//	            hash or io.Writer, fmt.Fprint*): unordered iteration
//	            feeding ordered output.
//	rawgo     — bare go statements, sync.WaitGroup, channels or select
//	            outside the sanctioned concurrency packages (internal/
//	            parallel, internal/batch, internal/serve, internal/
//	            dist): hot-path concurrency must use the chunk-ordered
//	            primitives.
//	floatfold — floating-point +=/-=/*=//= accumulation inside a loop
//	            that receives from a channel: reduction order would
//	            depend on delivery order (use parallel.OrderedFold).
//	gobpin    — a type gob-encoded or -decoded in internal/{nn,core,
//	            pic,dataset,experiments} must be pinned by an init-time
//	            zero-value Encode, keeping process-global gob type ids
//	            (and therefore bundle bytes and fingerprints) stable
//	            across process histories.
//
// Diagnostics are positional (file:line:col: analyzer: message) and
// exit status 1 reports findings. A finding can be suppressed, narrowly,
// with a directive comment naming the analyzer and a reason:
//
//	//determlint:ignore <analyzer> <reason>
//
// which applies only to its own source line and the line directly
// below it. Malformed and unused directives are themselves findings.
//
// The -race-packages mode prints, instead of linting, the internal
// packages the raw-concurrency analyzer identifies as concurrency
// bearing (defining or transitively importing raw concurrency) — the
// Makefile derives the `make race` package list from it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"usage: determlint [flags] [./...]\n\nanalyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.name, a.doc)
	}
	fmt.Fprintf(flag.CommandLine.Output(), "\nflags:\n")
	flag.PrintDefaults()
}

func main() {
	racePkgs := flag.Bool("race-packages", false,
		"print the concurrency-bearing internal packages (for `make race`) instead of linting")
	raceExclude := flag.String("race-exclude", "",
		"comma-separated package dirs to drop from -race-packages output (e.g. internal/nn)")
	flag.Usage = usage
	flag.Parse()

	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	root = strings.TrimSuffix(root, "...")
	if root != "/" {
		root = strings.TrimSuffix(root, "/")
	}
	if root == "" {
		root = "."
	}

	set, err := newLoader().load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "determlint:", err)
		os.Exit(2)
	}

	if *racePkgs {
		exclude := map[string]bool{}
		for _, rel := range strings.Split(*raceExclude, ",") {
			if rel = strings.TrimSpace(rel); rel != "" {
				exclude[rel] = true
			}
		}
		for _, dir := range racePackages(set, exclude) {
			fmt.Println(dir)
		}
		return
	}

	diags := runLint(set)
	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", d.pos, d.analyzer, d.message)
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "determlint: %d findings\n", n)
		os.Exit(1)
	}
}
