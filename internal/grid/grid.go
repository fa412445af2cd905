// Package grid defines the one-dimensional periodic spatial grid on which
// the PIC field quantities (charge density, potential, electric field)
// live, together with the finite-difference operators used by the field
// solvers and diagnostics.
//
// The grid has N cells of width dx spanning [0, L). Grid point i sits at
// x_i = i*dx; point N wraps to point 0 (periodic boundary). All field
// arrays are cell/node collocated of length N.
package grid

import "fmt"

// Grid describes a uniform periodic 1D mesh.
type Grid struct {
	n  int     // number of cells / nodes
	l  float64 // domain length
	dx float64 // cell width
}

// New constructs a periodic grid with n cells on [0, length).
func New(n int, length float64) (*Grid, error) {
	if n < 2 {
		return nil, fmt.Errorf("grid: need at least 2 cells, got %d", n)
	}
	if !(length > 0) {
		return nil, fmt.Errorf("grid: domain length must be positive, got %v", length)
	}
	return &Grid{n: n, l: length, dx: length / float64(n)}, nil
}

// MustNew is New that panics on error, for static configurations.
//
//deadcode:keep grid, interp, mover, poisson and diag tests build their fixed grids with it
func MustNew(n int, length float64) *Grid {
	g, err := New(n, length)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of cells.
func (g *Grid) N() int { return g.n }

// Length returns the domain length L.
func (g *Grid) Length() float64 { return g.l }

// Dx returns the cell width.
func (g *Grid) Dx() float64 { return g.dx }

// X returns the coordinate of node i (0 <= i < N).
func (g *Grid) X(i int) float64 { return float64(i) * g.dx }

// Wrap maps a position into the periodic domain [0, L).
func (g *Grid) Wrap(x float64) float64 {
	if x >= 0 && x < g.l {
		return x
	}
	x -= g.l * float64(int(x/g.l))
	if x < 0 {
		x += g.l
	}
	if x >= g.l { // guard against rounding x==L
		x -= g.l
	}
	return x
}

// CellOf returns the index of the cell containing position x (which must
// already lie in [0, L); use Wrap first for arbitrary positions).
func (g *Grid) CellOf(x float64) int {
	i := int(x / g.dx)
	if i >= g.n {
		i = g.n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Gradient computes dst = d(src)/dx with the second-order centered
// difference on the periodic grid: dst[i] = (src[i+1]-src[i-1]) / (2 dx).
// dst and src must have length N and may not alias.
func (g *Grid) Gradient(dst, src []float64) {
	n := g.n
	g.checkLen("Gradient", dst, src)
	inv2dx := 1 / (2 * g.dx)
	dst[0] = (src[1] - src[n-1]) * inv2dx
	for i := 1; i < n-1; i++ {
		dst[i] = (src[i+1] - src[i-1]) * inv2dx
	}
	dst[n-1] = (src[0] - src[n-2]) * inv2dx
}

// Laplacian computes dst = d2(src)/dx2 with the standard three-point
// stencil on the periodic grid.
func (g *Grid) Laplacian(dst, src []float64) {
	n := g.n
	g.checkLen("Laplacian", dst, src)
	invDx2 := 1 / (g.dx * g.dx)
	dst[0] = (src[1] - 2*src[0] + src[n-1]) * invDx2
	for i := 1; i < n-1; i++ {
		dst[i] = (src[i+1] - 2*src[i] + src[i-1]) * invDx2
	}
	dst[n-1] = (src[0] - 2*src[n-1] + src[n-2]) * invDx2
}

// Integral returns the integral of f over the periodic domain using the
// rectangle rule (exact for grid functions): sum f_i * dx.
func (g *Grid) Integral(f []float64) float64 {
	if len(f) != g.n {
		panic(fmt.Sprintf("grid: Integral length %d, grid %d", len(f), g.n))
	}
	var s float64
	for _, v := range f {
		s += v
	}
	return s * g.dx
}

// Mean returns the spatial average of f.
func (g *Grid) Mean(f []float64) float64 {
	return g.Integral(f) / g.l
}

// SubtractMean removes the spatial average from f in place and returns
// the removed mean. Periodic Poisson problems require zero-mean sources.
func (g *Grid) SubtractMean(f []float64) float64 {
	m := g.Mean(f)
	for i := range f {
		f[i] -= m
	}
	return m
}

func (g *Grid) checkLen(op string, dst, src []float64) {
	if len(dst) != g.n || len(src) != g.n {
		panic(fmt.Sprintf("grid: %s length mismatch dst=%d src=%d grid=%d", op, len(dst), len(src), g.n))
	}
}
