//go:build !race

package pmesh

const raceEnabled = false
