//go:build !race

package solver_test

const raceEnabled = false
