//go:build race

package pmesh

// raceEnabled disables allocation-count assertions under the race
// detector, whose instrumentation allocates on sync.Pool operations.
const raceEnabled = true
