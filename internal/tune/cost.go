package tune

import (
	"fmt"
	"math"

	"tme4a/internal/perfmodel"
)

// Weights calibrates the step-cost model: nanoseconds per model unit for
// each pipeline stage. DefaultWeights carries hand-set constants; the
// online Monitor rescales them when live obs profiles drift. All cost
// predictions are per md step.
type Weights struct {
	PairNs        float64 // per pair inside rc (pair-list force kernel)
	SkinPairNs    float64 // per stored pair outside rc (distance check only)
	RebuildPairNs float64 // per stored pair at a pair-list rebuild
	RebuildAtomNs float64 // per atom at a pair-list rebuild (binning)
	AssignNs      float64 // per atom·spline-tap of charge assign + interp
	ConvNs        float64 // per separable-convolution MAC (TME)
	ConvDirectNs  float64 // per direct-convolution MAC (MSM)
	FFTNs         float64 // per FFT butterfly (5·d³·log2 d³ per transform)
	GridNs        float64 // per grid point of restrict/prolong/k-scale
	ExclNs        float64 // per atom of exclusion corrections (in the pair loop)
	AtomNs        float64 // per atom fixed work (bonded, settle, integrate)
	DriftPerStep  float64 // nm of per-atom drift per step (rebuild cadence)
}

// DefaultWeights returns the committed calibration: constants set by hand
// when the tuner was written, against the stage timings of the engine of
// that time. No code fits them; `tmebench -exp frontier` measures every
// plan they price. Absolute values shift across hardware (the Monitor
// rescales them online); the ratios are what the planner's ranking rests
// on.
func DefaultWeights() Weights {
	return Weights{
		PairNs:        175,
		SkinPairNs:    70,
		RebuildPairNs: 60,
		RebuildAtomNs: 500,
		AssignNs:      4.2,
		ConvNs:        2.0,
		ConvDirectNs:  1.45,
		FFTNs:         3.0,
		GridNs:        2.0,
		ExclNs:        150,
		AtomNs:        800,
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
		{"assign_ns", w.AssignNs}, {"conv_ns", w.ConvNs},
		{"conv_direct_ns", w.ConvDirectNs}, {"fft_ns", w.FFTNs},
		{"grid_ns", w.GridNs}, {"excl_ns", w.ExclNs},
		{"atom_ns", w.AtomNs},
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
// excl/integrate — so the float64 total is deterministic. Units are model
// counts (pairs, taps, MACs, grid points); Time is nanoseconds per step.
//
// One pair-list formula covers every skin: the list stores the pairs
// within rc + skin and is rebuilt every max(1, ⌊skin/(2·drift)⌋) steps,
// so at skin 0 it stores the in-range pairs and rebuilds every step.
func (w Weights) StepCost(req Request, p Plan) perfmodel.Breakdown {
	atoms := float64(req.Atoms)
	rho := atoms / req.Box.Volume()
	pairs := func(r float64) float64 {
		return 0.5 * atoms * rho * (4 * math.Pi / 3) * r * r * r
	}

	var rows []perfmodel.StageCost
	add := func(stage string, units, ns float64) {
		rows = append(rows, perfmodel.StageCost{Stage: stage, Units: units, Time: ns})
	}

	inRc := pairs(p.Rc)
	stored := pairs(p.Rc + p.Skin)
	cadence := math.Max(1, math.Floor(p.Skin/(2*w.DriftPerStep)))
	add("short-range", inRc, inRc*w.PairNs+(stored-inRc)*w.SkinPairNs)
	add("neighbor", stored, (stored*w.RebuildPairNs+atoms*w.RebuildAtomNs)/cadence)

	n := p.Grid[0]
	n3 := float64(n) * float64(n) * float64(n)
	order := float64(p.Order)
	assignUnits := 2 * atoms * order * order * order
	add("assign", assignUnits, assignUnits*w.AssignNs)

	switch p.Method {
	case "spme":
		u := 2 * fftUnits(n)
		add("fft", u, u*w.FFTNs)
		add("grid", n3, n3*w.GridNs)
	case "tme":
		levels := p.Levels
		if levels < 1 {
			levels = 1
		}
		var convUnits float64
		for l := 0; l < levels; l++ {
			convUnits += perfmodel.CompCostTME(p.Gc, n>>l, p.M)
		}
		add("conv", convUnits, convUnits*w.ConvNs)
		top := n >> levels
		u := 2 * fftUnits(top)
		add("fft", u, u*w.FFTNs)
		gridUnits := 2 * n3 * order
		add("grid", gridUnits, gridUnits*w.GridNs)
	case "msm":
		convUnits := perfmodel.CompCostMSM(p.Gc, n)
		add("conv", convUnits, convUnits*w.ConvDirectNs)
		levels := p.Levels
		if levels < 1 {
			levels = 1
		}
		top := n >> levels
		u := 2 * fftUnits(top)
		add("fft", u, u*w.FFTNs)
		gridUnits := 2 * n3 * order
		add("grid", gridUnits, gridUnits*w.GridNs)
	}

	add("excl", atoms, atoms*w.ExclNs)
	add("integrate", atoms, atoms*w.AtomNs)
	return perfmodel.Breakdown{Method: p.Method, Stages: rows}
}

// shortGroup and meshGroup partition the rows for the monitor's drift
// comparison against obs stage timings: obs.StageShortRange +
// StageNeighbor cover the first group (the pair loop applies the
// exclusion corrections), obs.StageMesh the second.
func shortGroup(b perfmodel.Breakdown) float64 {
	return b.StageTime("short-range") + b.StageTime("neighbor") + b.StageTime("excl")
}

func meshGroup(b perfmodel.Breakdown) float64 {
	return b.StageTime("assign") + b.StageTime("conv") + b.StageTime("fft") +
		b.StageTime("grid")
}
