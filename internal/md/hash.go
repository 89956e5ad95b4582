package md

import (
	"hash/fnv"
	"math"
)

// StateHash digests the full dynamic state of a system — positions and
// velocities as raw float64 bits, in atom order — with FNV-1a. Two states
// hash equal iff they are bitwise identical, so trajectory comparisons
// built on it (the serve tier's kill-and-resume and per-job identity
// checks) are exact rather than tolerance-based.
func StateHash(sys *System) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(x float64) {
		u := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := range sys.Pos {
		for k := 0; k < 3; k++ {
			word(sys.Pos[i][k])
		}
		for k := 0; k < 3; k++ {
			word(sys.Vel[i][k])
		}
	}
	return h.Sum64()
}
