package main

import (
	"strings"
	"testing"
)

// smallRun is a cheap picrun invocation: the paper box at 10 particles
// per cell for a few steps.
func smallRun(method string) runOpts {
	return runOpts{
		method: method, solver: "spectral", scheme: "CIC",
		steps: 2, cells: 64, ppc: 10, v0: 0.2, vth: 0.025, dt: 0.2, seed: 1,
	}
}

// TestRunRefusesTraditionalOnlyFlags pins that -energy-conserving and
// -solver are refused with the oracle method, which ignores both (the
// energy-conserving gather would read a potential the oracle never
// writes, and the particles would free-stream), while the traditional
// method still accepts them.
func TestRunRefusesTraditionalOnlyFlags(t *testing.T) {
	ec := smallRun("oracle")
	ec.ec = true
	cg := smallRun("oracle")
	cg.solver = "cg"
	for name, o := range map[string]runOpts{"-energy-conserving": ec, "-solver cg": cg} {
		err := run(o)
		if err == nil || !strings.Contains(err.Error(), "traditional field method only") {
			t.Fatalf("%s with -method oracle: got %v, want a refusal", name, err)
		}
	}
	trad := smallRun("traditional")
	trad.ec = true
	trad.solver = "cg"
	if err := run(trad); err != nil {
		t.Fatalf("-energy-conserving -solver cg with -method traditional: %v", err)
	}
}
