// Command app is the fixture module's binary: it reaches one function
// of the root package, and some of internal/lib directly, one method
// only through an interface, one generic function through an
// instantiation and one closure.
package main

import (
	"fmt"

	"example.com/dead"
	"example.com/dead/internal/lib"
)

func main() {
	var s lib.Shape = &lib.Square{Side: 2}
	next := lib.Counter()
	fmt.Println(lib.Reached(), lib.Sum([]float64{1, 2}), s.Area(), next(), lib.Stale(), dead.Linked())
}
