//go:build deadcodefixture

package lib

// Tagged is in a file the default build excludes, so it is not checked.
func Tagged() int { return 7 }
