// Package faketest is a test-support package: its exported functions
// serve other packages' tests and need no non-test caller, but its
// unexported ones must still be used by its own code.
package faketest

// Helper is exported: exempt.
func Helper() { helper() }

// Unused is exported: exempt even with no caller at all.
func Unused() {}

func helper() {}

func orphan() {} // want "orphan is referenced by no non-test code"
