//go:build race

package solver_test

// raceEnabled disables allocation-count assertions under the race
// detector, whose instrumentation allocates on sync.Pool operations.
const raceEnabled = true
