// Package lib is the fixture library the deadcode test checks.
package lib

// Reached is called by cmd/app.
func Reached() int { return 1 }

// Unreached is called by no binary: the one plain finding.
func Unreached() int { return 2 }

// Sum is generic; cmd/app instantiates it at float64.
func Sum[T int | float64](xs []T) T {
	var s T
	for _, x := range xs {
		s += x
	}
	return s
}

// Shape is the interface cmd/app calls Area through.
type Shape interface{ Area() float64 }

// Square's Area has a pointer receiver and is called only through
// Shape.
type Square struct{ Side float64 }

// Area implements Shape.
func (s *Square) Area() float64 { return s.Side * s.Side }

// Perimeter is a method no binary calls.
func (s *Square) Perimeter() float64 { return 4 * s.Side }

// Counter returns a closure; cmd/app calls both.
func Counter() func() int {
	n := 0
	return func() int { n++; return n }
}

// Kept is called by no binary but carries a keep directive.
//
//deadcode:keep lib TestKept: a test oracle
func Kept() int { return 3 }

// Stale is reached by cmd/app, so its keep directive is a finding.
//
//deadcode:keep X.1: a future caller
func Stale() int { return 4 }

// NoReason's keep directive names no caller, which is a finding.
//
//deadcode:keep
func NoReason() int { return 5 }

// FromExtra is reached only by the nested module's binary.
func FromExtra() int { return 6 }
