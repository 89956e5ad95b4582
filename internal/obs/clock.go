package obs

import "time"

// This file is the clock seam: the only place in internal/ allowed to read
// wall-clock time. The tmevet clock check enforces that time.* reads in
// internal/ appear only inside functions carrying the //tme:clock-seam
// directive, and both live here — so a trajectory can depend on the clock
// only through the recorder's non-numeric timing slots.

// epoch anchors the monotonic clock; reading durations relative to a
// process-local epoch keeps the int64 nanosecond values small and uses
// Go's monotonic clock reading, immune to wall-clock adjustments.
var epoch = seamEpoch()

// seamEpoch captures the process start time.
//
//tme:clock-seam
func seamEpoch() time.Time { return time.Now() }

// monotonicNow returns monotonic nanoseconds since the package was
// initialized. It is the default clock of New and allocates nothing.
//
//tme:clock-seam
func monotonicNow() int64 { return int64(time.Since(epoch)) }

// Now returns monotonic nanoseconds since process start — the sanctioned
// clock for code outside the experiment harnesses that must measure wall
// latency (the serve tier's per-step samples). It reads the same seam as
// the recorder's default clock, so the clock invariant stays intact:
// every clock read in internal/ flows through this file.
func Now() int64 { return monotonicNow() }
