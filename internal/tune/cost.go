package tune

import (
	"fmt"
	"math"

	"tme4a/internal/perfmodel"
)

// Weights calibrates the step-cost model: nanoseconds per model unit for
// each pipeline stage. DefaultWeights carries constants fit to measured
// per-stage timings of this engine (the autotune experiment re-measures
// them; the online Monitor rescales them when live obs profiles drift).
// All cost predictions are per md step.
type Weights struct {
	PairNs        float64 // per pair inside rc (Verlet path force kernel)
	SkinPairNs    float64 // per stored pair outside rc (distance check only)
	RebuildPairNs float64 // per stored pair at a Verlet list rebuild
	RebuildAtomNs float64 // per atom at a Verlet list rebuild (binning)
	CellPairNs    float64 // per pair inside rc at Skin 0 (list rebuilt every step)
	CellAtomNs    float64 // per atom per step at Skin 0
	AssignNs      float64 // per atom·spline-tap of charge assign + interp
	ConvNs        float64 // per separable-convolution MAC (TME)
	ConvDirectNs  float64 // per direct-convolution MAC (MSM)
	FFTNs         float64 // per FFT butterfly (5·d³·log2 d³ per transform)
	GridNs        float64 // per grid point of restrict/prolong/k-scale
	ExclNs        float64 // per atom of exclusion corrections
	AtomNs        float64 // per atom fixed work (bonded, settle, integrate)
	HaloNs        float64 // per grid point exchanged across slab halos
	DriftPerStep  float64 // nm of per-atom drift per step (rebuild cadence)
}

// DefaultWeights returns the committed calibration, fit to stage timings
// measured by `tmebench -exp autotune` on the reference development
// machine. Absolute values shift across hardware (the Monitor re-fits
// them online); the ratios are what the planner's ranking rests on.
func DefaultWeights() Weights {
	return Weights{
		PairNs:        175,
		SkinPairNs:    70,
		RebuildPairNs: 60,
		RebuildAtomNs: 500,
		CellPairNs:    280,
		CellAtomNs:    600,
		AssignNs:      4.2,
		ConvNs:        2.0,
		ConvDirectNs:  1.45,
		FFTNs:         3.0,
		GridNs:        2.0,
		ExclNs:        150,
		AtomNs:        800,
		HaloNs:        4,
		DriftPerStep:  5e-4,
	}
}

// validate rejects weights the cost model cannot score with.
func (w Weights) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"pair_ns", w.PairNs}, {"skin_pair_ns", w.SkinPairNs},
		{"rebuild_pair_ns", w.RebuildPairNs}, {"rebuild_atom_ns", w.RebuildAtomNs},
		{"cell_pair_ns", w.CellPairNs}, {"cell_atom_ns", w.CellAtomNs},
		{"assign_ns", w.AssignNs}, {"conv_ns", w.ConvNs},
		{"conv_direct_ns", w.ConvDirectNs}, {"fft_ns", w.FFTNs},
		{"grid_ns", w.GridNs}, {"excl_ns", w.ExclNs},
		{"atom_ns", w.AtomNs}, {"halo_ns", w.HaloNs},
	} {
		if !isFinite(f.v) || f.v < 0 {
			return &RequestError{Field: "weights." + f.name, Reason: fmt.Sprintf("%g, want finite and non-negative", f.v)}
		}
	}
	if !isFinite(w.DriftPerStep) || w.DriftPerStep <= 0 {
		return &RequestError{Field: "weights.drift_per_step", Reason: fmt.Sprintf("%g, want finite and positive", w.DriftPerStep)}
	}
	return nil
}

// fftUnits returns the butterfly count of one 3D transform of dim d:
// 5·d³·log₂(d³).
func fftUnits(d int) float64 {
	n3 := float64(d) * float64(d) * float64(d)
	return 5 * n3 * 3 * math.Log2(float64(d))
}

// StepCost scores a plan as per-stage rows. Row order is fixed —
// short-range, neighbor, assign, then the method's mesh stages, then
// excl/integrate/halo — so the float64 total is deterministic. Units are
// model counts (pairs, taps, MACs, grid points); Time is nanoseconds per
// step.
func (w Weights) StepCost(req Request, p Plan) perfmodel.Breakdown {
	atoms := float64(req.Atoms)
	rho := atoms / req.Box.Volume()
	pairs := func(r float64) float64 {
		return 0.5 * atoms * rho * (4 * math.Pi / 3) * r * r * r
	}
	par := float64(p.Slabs)
	if par < 1 {
		par = 1
	}

	var rows []perfmodel.StageCost
	add := func(stage string, units, ns float64) {
		rows = append(rows, perfmodel.StageCost{Stage: stage, Units: units, Time: ns})
	}

	inRc := pairs(p.Rc)
	if p.Skin > 0 {
		stored := pairs(p.Rc + p.Skin)
		cadence := math.Max(1, math.Floor(p.Skin/(2*w.DriftPerStep)))
		add("short-range", inRc, (inRc*w.PairNs+(stored-inRc)*w.SkinPairNs)/par)
		add("neighbor", stored, (stored*w.RebuildPairNs+atoms*w.RebuildAtomNs)/cadence/par)
	} else {
		add("short-range", inRc, inRc*w.CellPairNs/par)
		add("neighbor", atoms, atoms*w.CellAtomNs/par)
	}

	n := p.Grid[0]
	n3 := float64(n) * float64(n) * float64(n)
	order := float64(p.Order)
	assignUnits := 2 * atoms * order * order * order
	add("assign", assignUnits, assignUnits*w.AssignNs/par)

	switch p.Method {
	case "spme":
		u := 2 * fftUnits(n)
		add("fft", u, u*w.FFTNs/par)
		add("grid", n3, n3*w.GridNs/par)
	case "tme":
		levels := p.Levels
		if levels < 1 {
			levels = 1
		}
		var convUnits float64
		for l := 0; l < levels; l++ {
			convUnits += perfmodel.CompCostTME(p.Gc, n>>l, p.M)
		}
		add("conv", convUnits, convUnits*w.ConvNs/par)
		top := n >> levels
		u := 2 * fftUnits(top)
		add("fft", u, u*w.FFTNs/par)
		gridUnits := 2 * n3 * order
		add("grid", gridUnits, gridUnits*w.GridNs/par)
	case "msm":
		convUnits := perfmodel.CompCostMSM(p.Gc, n)
		add("conv", convUnits, convUnits*w.ConvDirectNs/par)
		levels := p.Levels
		if levels < 1 {
			levels = 1
		}
		top := n >> levels
		u := 2 * fftUnits(top)
		add("fft", u, u*w.FFTNs/par)
		gridUnits := 2 * n3 * order
		add("grid", gridUnits, gridUnits*w.GridNs/par)
	}

	add("excl", atoms, atoms*w.ExclNs/par)
	add("integrate", atoms, atoms*w.AtomNs)
	if p.Slabs > 1 {
		haloGc := p.Gc
		if haloGc == 0 {
			haloGc = p.Order
		}
		haloUnits := 2 * float64(haloGc) * float64(n) * float64(n) * float64(p.Slabs)
		add("halo", haloUnits, haloUnits*w.HaloNs)
	}
	return perfmodel.Breakdown{Method: p.Method, Stages: rows}
}

// shortGroup and meshGroup partition the rows for the monitor's drift
// comparison against obs stage timings: obs.StageShortRange +
// StageNeighbor cover the first group, obs.StageMesh the second.
func shortGroup(b perfmodel.Breakdown) float64 {
	return b.StageTime("short-range") + b.StageTime("neighbor")
}

func meshGroup(b perfmodel.Breakdown) float64 {
	return b.StageTime("assign") + b.StageTime("conv") + b.StageTime("fft") +
		b.StageTime("grid") + b.StageTime("excl")
}
