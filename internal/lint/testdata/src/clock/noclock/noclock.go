// Package noclock exercises the clock check's ambient-state half: wall-clock
// reads outside a //tme:clock-seam function and global-random-source draws
// are flagged; explicitly seeded generators and *rand.Rand methods are not.
// This is not a seam package, so the directive exempts nothing here.
package noclock

import (
	"math/rand"
	stdtime "time"
)

func stamp() int64 {
	t := stdtime.Now() // want "time.Now outside a //tme:clock-seam function makes results depend on wall-clock state"
	return t.UnixNano()
}

func elapsed(t0 stdtime.Time) stdtime.Duration {
	return stdtime.Since(t0) // want "time.Since outside a //tme:clock-seam function makes results depend on wall-clock state"
}

// selfExempt carries the seam directive outside the observability package,
// where it permits nothing: the read is still flagged.
//
//tme:clock-seam
func selfExempt() stdtime.Time {
	return stdtime.Now() // want "time.Now in a //tme:clock-seam function outside internal/obs"
}

func globalDraws() float64 {
	x := rand.Float64()                // want "rand.Float64 draws from the global random source"
	n := rand.Intn(7)                  // want "rand.Intn draws from the global random source"
	rand.Shuffle(3, func(i, j int) {}) // want "rand.Shuffle draws from the global random source"
	return x + float64(n)
}

func seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed)) // constructors are the sanctioned pattern: no finding
	return rng.Float64()                  // method on explicit *rand.Rand: no finding
}

func suppressed() float64 {
	return rand.Float64() //tmevet:ignore clock -- demo of the suppression grammar
}

// staleSuppression names a check folded into clock: the directive
// suppresses nothing and is itself reported.
func staleSuppression() float64 {
	//tmevet:ignore noclock -- a name from before the fold // want "unknown check \"noclock\""
	return rand.Float64() // want "rand.Float64 draws from the global random source"
}

func notTheRealTime() {
	// A local identifier named "time" must not confuse the resolver.
	time := struct{ Now func() int }{Now: func() int { return 0 }}
	_ = time.Now()
}
