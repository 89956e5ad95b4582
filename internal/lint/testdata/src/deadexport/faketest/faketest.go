// Package faketest is a test-support package: its exported functions
// serve other packages' tests and need no non-test caller, but its
// unexported ones must still be used by its own code.
package faketest

// Helper is exported: exempt.
func Helper() { helper() }

// Unused is exported: exempt even with no caller at all.
func Unused() {}

func helper() {}

// crasher is an interface only this test-support package declares.
type crasher interface{ Crash() }

// Crash crashes fs when it models power loss: exported, so exempt.
func Crash(fs any) {
	if c, ok := fs.(crasher); ok {
		c.Crash()
	}
}

func orphan() {} // want "orphan is referenced by no non-test code"
