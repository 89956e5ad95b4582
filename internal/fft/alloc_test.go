package fft

import (
	"math/rand"
	"testing"

	"tme4a/internal/par/partest"
)

// TestPlan3SteadyStateAllocs gates the //tme:noalloc annotations on the
// complex 3D path: after the plan cache and the row-scratch pool are
// warm, repeated transforms of a fixed-size grid allocate nothing at one,
// two or four workers (the strided-line buffer is pooled, not remade per
// call).
func TestPlan3SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(7))
	p := NewPlan3(16, 16, 16)
	data := make([]complex128, p.Size())
	for i := range data {
		data[i] = complex(rng.Float64(), rng.Float64())
	}

	for _, procs := range []int{1, 2, 4} {
		allocs := partest.AllocsPerRun(procs, 50, func() {
			p.Forward(data)
			p.Inverse(data)
		})
		if allocs != 0 {
			t.Errorf("GOMAXPROCS=%d: Plan3 Forward+Inverse allocates %.1f objects per step in steady state, want 0", procs, allocs)
		}
	}
}

// TestRealPlan3SteadyStateAllocs gates the real-to-half-spectrum path
// that the SPME reciprocal solve runs every step.
func TestRealPlan3SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(8))
	p := NewRealPlan3(32, 16, 16)
	data := make([]float64, p.Nx*p.Ny*p.Nz)
	spec := make([]complex128, p.SpectrumLen())
	for i := range data {
		data[i] = rng.Float64()
	}

	for _, procs := range []int{1, 2, 4} {
		allocs := partest.AllocsPerRun(procs, 50, func() {
			p.Forward(data, spec)
			p.Inverse(spec, data)
		})
		if allocs != 0 {
			t.Errorf("GOMAXPROCS=%d: RealPlan3 Forward+Inverse allocates %.1f objects per step in steady state, want 0", procs, allocs)
		}
	}
}
