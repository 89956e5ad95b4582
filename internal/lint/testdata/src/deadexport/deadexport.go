// Package deadexport exercises the deadexport check: every function and
// method of a non-test file must be referenced by non-test code outside
// its own body. A function only a _test.go file calls, a method no code
// calls, one that only calls itself and an import of a test-support
// package are flagged; a method an interface may dispatch to, a function
// referenced as a value and init are not.
package deadexport

import (
	"fmt"

	"tme4a/internal/lint/testdata/src/deadexport/faketest" // want "non-test file imports test-support package .*/faketest"
	"tme4a/internal/lint/testdata/src/par"
)

// Config is the shape of a 3D torus of nodes.
type Config struct{ Size [3]int }

// NodeID flattens a coordinate; init calls it.
func (c Config) NodeID(x, y, z int) int { return x + c.Size[0]*(y+c.Size[1]*z) }

// CoordOf unflattens a node id. Only its round-trip test calls it.
func (c Config) CoordOf(id int) [3]int { // want "Config.CoordOf is referenced by no non-test code"
	return [3]int{id % c.Size[0], id / c.Size[0] % c.Size[1], id / (c.Size[0] * c.Size[1])}
}

// Nodes is reached only through the shape interface: exempt.
func (c Config) Nodes() int { return c.Size[0] * c.Size[1] * c.Size[2] }

// String satisfies fmt.Stringer, which fmt calls dynamically: exempt.
func (c Config) String() string { return fmt.Sprint(c.Size) }

// shape is an interface the package uses.
type shape interface{ Nodes() int }

// Ring has a Nodes method too, but no Reset it would need to be a
// resetter, so its Reset is reported.
type Ring struct{ n int }

func (r *Ring) Nodes() int { return r.n }

func (r *Ring) Reset() { r.n = 0 } // want "Ring.Reset is referenced by no non-test code"

// resetter is an interface Ring does not implement.
type resetter interface {
	Reset()
	Len() int
}

// code is an error type; error's Error is exempt.
type code int

func (c code) Error() string { return fmt.Sprintf("code %d", int(c)) }

// OnlyTested is called by deadexport_test.go alone.
func OnlyTested() int { return 1 } // want "OnlyTested is referenced by no non-test code"

// countdown calls only itself.
func countdown(n int) int { // want "countdown is referenced by no non-test code"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// bump is a par.For body: referenced as a value.
func bump(xs []int, i int) { xs[i]++ }

// done is referenced only as a value stored in a var.
func done() {}

var onDone = done

var (
	_ shape    = Config{}
	_ shape    = &Ring{}
	_ error    = code(0)
	_ resetter = nil
)

func init() {
	xs := make([]int, 4)
	par.For(len(xs), xs, bump)
	_ = Config{Size: [3]int{2, 2, 2}}.NodeID(1, 1, 1)
	onDone()
	faketest.Helper()
}
