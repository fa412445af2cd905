// Command extra is a binary in a nested module, as tools/bench is in
// the repository.
package main

import (
	"fmt"

	"example.com/dead/internal/lib"
)

func main() { fmt.Println(lib.FromExtra()) }
