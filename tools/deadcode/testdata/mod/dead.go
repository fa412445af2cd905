// Package dead is the fixture module's root package, checked like
// internal/lib.
package dead

// Linked is called by cmd/app.
func Linked() int { return 8 }

// Unlinked is called by no binary: the root package's finding.
func Unlinked() int { return 9 }
