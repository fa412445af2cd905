// Package interp implements the particle-grid interpolation (weighting)
// schemes of the PIC method: Nearest-Grid-Point (NGP, order 0),
// Cloud-in-Cell (CIC, order 1) and Triangular-Shaped-Cloud (TSC, order 2),
// following Birdsall & Langdon and Hockney & Eastwood.
//
// Two directions are needed each PIC cycle:
//
//   - Gather: evaluate a grid field at particle positions
//     (step 1 of the cycle, E-field at x_p);
//   - Deposit (scatter): accumulate particle charge onto grid nodes
//     (step 3 of the cycle, charge density rho).
//
// Using the same weighting function for both directions makes the scheme
// momentum-conserving (zero net self-force); that property is exercised
// by the package tests and by the traditional-PIC integration tests.
package interp

import (
	"fmt"

	"dlpic/internal/grid"
	"dlpic/internal/parallel"
)

// Scheme identifies an interpolation order.
type Scheme int

const (
	// NGP assigns everything to the nearest grid node (top-hat, order 0).
	NGP Scheme = iota
	// CIC splits linearly between the two surrounding nodes (order 1).
	CIC
	// TSC spreads quadratically over three nodes (order 2).
	TSC
)

// String returns the scheme's conventional abbreviation.
func (s Scheme) String() string {
	switch s {
	case NGP:
		return "NGP"
	case CIC:
		return "CIC"
	case TSC:
		return "TSC"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme converts a string (case-sensitive, conventional
// abbreviation) to a Scheme.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "NGP", "ngp":
		return NGP, nil
	case "CIC", "cic":
		return CIC, nil
	case "TSC", "tsc":
		return TSC, nil
	}
	return 0, fmt.Errorf("interp: unknown scheme %q (want NGP, CIC or TSC)", s)
}

// Valid reports whether s is a defined scheme.
func (s Scheme) Valid() bool { return s == NGP || s == CIC || s == TSC }

// weights computes, for a particle at position x on grid g, the leftmost
// touched node index and the per-node weights w (sum 1). The node index
// may be negative or >= N; callers wrap modulo N.
//
// Conventions (h = x/dx):
//   - NGP: node round(h), weight 1.
//   - CIC: nodes floor(h), floor(h)+1 with linear weights.
//   - TSC: nodes round(h)-1 .. round(h)+1 with quadratic spline weights.
func weights(s Scheme, g *grid.Grid, x float64, w *[3]float64) (left int, count int) {
	h := x / g.Dx()
	switch s {
	case NGP:
		i := int(h + 0.5)
		w[0] = 1
		return i, 1
	case CIC:
		i := int(h)
		frac := h - float64(i)
		w[0] = 1 - frac
		w[1] = frac
		return i, 2
	default: // TSC
		i := int(h + 0.5)
		d := h - float64(i) // in [-0.5, 0.5]
		w[0] = 0.5 * (0.5 - d) * (0.5 - d)
		w[1] = 0.75 - d*d
		w[2] = 0.5 * (0.5 + d) * (0.5 + d)
		return i - 1, 3
	}
}

// wrapNode maps a node index at most one period outside the grid back
// into [0, n).
func wrapNode(idx, n int) int {
	if idx >= n {
		return idx - n
	}
	if idx < 0 {
		return idx + n
	}
	return idx
}

// Gather evaluates the grid field on each particle position:
// out[p] = sum_i W(x_p - x_i) field[i]. Positions must lie in [0, L).
// out and pos must have equal length; field must have length g.N().
func Gather(s Scheme, g *grid.Grid, field []float64, pos []float64, out []float64) {
	if len(field) != g.N() {
		panic(fmt.Sprintf("interp: Gather field length %d, grid %d", len(field), g.N()))
	}
	if len(out) != len(pos) {
		panic(fmt.Sprintf("interp: Gather out length %d, pos %d", len(out), len(pos)))
	}
	parallel.For(len(pos), func(start, end int) {
		if s == CIC {
			gatherCIC(g, field, pos[start:end], out[start:end])
		} else {
			gatherGeneric(s, g, field, pos[start:end], out[start:end])
		}
	})
}

// gatherGeneric is the gather for any scheme, through weights(). NGP and
// TSC run on it; for CIC it is the reference gatherCIC is tested against.
func gatherGeneric(s Scheme, g *grid.Grid, field, pos, out []float64) {
	n := g.N()
	var w [3]float64
	for p, x := range pos {
		left, cnt := weights(s, g, x, &w)
		var v float64
		for k := 0; k < cnt; k++ {
			v += w[k] * field[wrapNode(left+k, n)]
		}
		out[p] = v
	}
}

// gatherCIC is gatherGeneric(CIC, ...) with the scheme switch, the weight
// array and the support loop unrolled away. The operations and their
// order are those of the generic path — including the leading 0 + of its
// accumulator, which turns a -0 product into +0 — so the results are
// bit-identical.
func gatherCIC(g *grid.Grid, field, pos, out []float64) {
	n := g.N()
	dx := g.Dx()
	for p, x := range pos {
		h := x / dx
		i := int(h)
		frac := h - float64(i)
		var v float64
		v += (1 - frac) * field[wrapNode(i, n)]
		v += frac * field[wrapNode(i+1, n)]
		out[p] = v
	}
}

// Deposit accumulates per-particle charge onto grid nodes and converts to
// a density: rho[i] += sum_p q_p W(x_p - x_i) / dx. The charge argument is
// the charge per macro-particle (all particles share it, matching the
// two-stream setup); rho is overwritten, not accumulated into.
//
// The deposit is parallelized with the deterministic scatter-reduce of
// internal/parallel: one private density buffer per fixed chunk of the
// particle range, reduced in chunk order, so the result is bit-identical
// at every GOMAXPROCS.
func Deposit(s Scheme, g *grid.Grid, pos []float64, charge float64, rho []float64) {
	if len(rho) != g.N() {
		panic(fmt.Sprintf("interp: Deposit rho length %d, grid %d", len(rho), g.N()))
	}
	parallel.ScatterReduce(len(pos), rho, func(acc []float64, start, end int) {
		if s == CIC {
			depositCIC(g, pos[start:end], acc)
		} else {
			depositGeneric(s, g, pos[start:end], acc)
		}
	})
	scale := charge / g.Dx()
	for i := range rho {
		rho[i] *= scale
	}
}

// depositGeneric adds the unit-charge weights of pos into acc for any
// scheme, through weights(); the counterpart of gatherGeneric.
func depositGeneric(s Scheme, g *grid.Grid, pos, acc []float64) {
	n := g.N()
	var w [3]float64
	for _, x := range pos {
		left, cnt := weights(s, g, x, &w)
		for k := 0; k < cnt; k++ {
			acc[wrapNode(left+k, n)] += w[k]
		}
	}
}

// depositCIC is depositGeneric(CIC, ...) unrolled the way gatherCIC is:
// the same two adds in the same order.
func depositCIC(g *grid.Grid, pos, acc []float64) {
	n := g.N()
	dx := g.Dx()
	for _, x := range pos {
		h := x / dx
		i := int(h)
		frac := h - float64(i)
		acc[wrapNode(i, n)] += 1 - frac
		acc[wrapNode(i+1, n)] += frac
	}
}
