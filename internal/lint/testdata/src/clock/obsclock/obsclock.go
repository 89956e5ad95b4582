// Package obsclock exercises the clock check's seam half: wall-clock reads
// are legal only inside functions carrying the //tme:clock-seam doc
// directive, and a seam sanctions clock reads only, not global-random-source
// draws.
package obsclock

import (
	"math/rand"
	stdtime "time"
)

// A package-level initializer runs outside any seam function: flagged.
var bootTime = stdtime.Now() // want "time.Now outside a //tme:clock-seam function"

// seamEpoch is the sanctioned pattern: the directive whitelists the read.
//
//tme:clock-seam
func seamEpoch() stdtime.Time { return stdtime.Now() }

// monotonic nests two clock reads under one seam: no finding.
//
//tme:clock-seam
func monotonic() int64 {
	t0 := stdtime.Now()
	return int64(stdtime.Since(t0))
}

// seamDraw: a seam sanctions clock reads only, not the global source.
//
//tme:clock-seam
func seamDraw() float64 {
	return rand.Float64() // want "rand.Float64 draws from the global random source"
}

func stamp() int64 {
	return stdtime.Now().UnixNano() // want "time.Now outside a //tme:clock-seam function"
}

func elapsed(t0 stdtime.Time) stdtime.Duration {
	return stdtime.Since(t0) // want "time.Since outside a //tme:clock-seam function"
}

func elapsedLater(t0 stdtime.Time) func() stdtime.Duration {
	// A closure inside a non-seam function is outside the seam too.
	return func() stdtime.Duration {
		return stdtime.Since(t0) // want "time.Since outside a //tme:clock-seam function"
	}
}

func deadline(t stdtime.Time) stdtime.Duration {
	return stdtime.Until(t) // want "time.Until outside a //tme:clock-seam function"
}

// Pure time constructors and converters carry no ambient state: no finding.
func pure() stdtime.Duration {
	d := 3 * stdtime.Millisecond
	_ = stdtime.Unix(0, 0)
	_ = bootTime.Add(d)
	return d
}

func suppressed() stdtime.Time {
	return stdtime.Now() //tmevet:ignore clock -- demo of the suppression grammar
}

func notTheRealTime() int {
	// A local identifier named "time" must not confuse the resolver.
	time := struct{ Now func() int }{Now: func() int { return 0 }}
	return time.Now()
}
