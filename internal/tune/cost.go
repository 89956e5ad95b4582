package tune

import (
	"fmt"
	"math"

	"tme4a/internal/obs"
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

// price is one per-unit price of Weights: its JSON name, the stage of the
// StepCost row it prices, and the field.
type price struct {
	name  string
	stage obs.Stage
	v     *float64
}

// prices lists every per-unit price of w once, beside the stage of the
// row it prices. validate checks each, and the Monitor rescales each by
// the drift of the measured stage that contains it.
func (w *Weights) prices() [11]price {
	return [11]price{
		{"pair_ns", obs.StageShortRange, &w.PairNs},
		{"skin_pair_ns", obs.StageShortRange, &w.SkinPairNs},
		{"rebuild_pair_ns", obs.StageNeighbor, &w.RebuildPairNs},
		{"rebuild_atom_ns", obs.StageNeighbor, &w.RebuildAtomNs},
		{"assign_ns", obs.StageMesh, &w.AssignNs},
		{"conv_ns", obs.StageConv, &w.ConvNs},
		{"conv_direct_ns", obs.StageConv, &w.ConvDirectNs},
		{"fft_ns", obs.StageFFT, &w.FFTNs},
		{"grid_ns", obs.StageMesh, &w.GridNs},
		{"excl_ns", obs.StageShortRange, &w.ExclNs},
		{"atom_ns", obs.StageStep, &w.AtomNs},
	}
}

// validate rejects weights the cost model cannot score with.
func (w Weights) validate() error {
	for _, f := range w.prices() {
		if !isFinite(*f.v) || *f.v < 0 {
			return &RequestError{Field: "weights." + f.name, Reason: fmt.Sprintf("%g, want finite and non-negative", *f.v)}
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

// StageCost is one priced row of a step: the model's unit count for the
// work it prices and that work's time. Stage is the innermost obs stage
// whose span contains all of that work, so a prediction and a live
// profile are keyed alike.
type StageCost struct {
	Stage obs.Stage
	Units float64 // model units (pairs, taps, MACs, grid points)
	Ns    float64 // nanoseconds per step
}

// Cost is a plan's priced rows in StepCost's fixed order.
type Cost []StageCost

// Within sums, in row order, the rows whose stage is within stage t:
// Within(obs.StageStep) is the whole step.
func (c Cost) Within(t obs.Stage) float64 {
	var ns float64
	for _, r := range c {
		if r.Stage.Within(t) {
			ns += r.Ns
		}
	}
	return ns
}

// StepCost scores a plan as per-stage rows. Row order is fixed —
// short-range, neighbor, assign, then the method's mesh stages, then
// excl/integrate — so every sum over the rows is deterministic. Assign
// (assign + interp) and grid (restriction, prolongation, k-space scaling)
// span several measured stages, so they key the mesh total; integrate
// (bonded, settle, integration) keys the step.
//
// One pair-list formula covers every skin: the list stores the pairs
// within rc + skin and is rebuilt every max(1, ⌊skin/(2·drift)⌋) steps,
// so at skin 0 it stores the in-range pairs and rebuilds every step.
func (w Weights) StepCost(req Request, p Plan) Cost {
	atoms := float64(req.Atoms)
	rho := atoms / req.Box.Volume()
	pairs := func(r float64) float64 {
		return 0.5 * atoms * rho * (4 * math.Pi / 3) * r * r * r
	}

	rows := make(Cost, 0, 8)
	add := func(stage obs.Stage, units, ns float64) {
		rows = append(rows, StageCost{Stage: stage, Units: units, Ns: ns})
	}

	inRc := pairs(p.Rc)
	stored := pairs(p.Rc + p.Skin)
	cadence := math.Max(1, math.Floor(p.Skin/(2*w.DriftPerStep)))
	add(obs.StageShortRange, inRc, inRc*w.PairNs+(stored-inRc)*w.SkinPairNs)
	add(obs.StageNeighbor, stored, (stored*w.RebuildPairNs+atoms*w.RebuildAtomNs)/cadence)

	n := p.Grid[0]
	n3 := float64(n) * float64(n) * float64(n)
	order := float64(p.Order)
	assignUnits := 2 * atoms * order * order * order
	add(obs.StageMesh, assignUnits, assignUnits*w.AssignNs)

	switch p.Method {
	case "spme":
		u := 2 * fftUnits(n)
		add(obs.StageFFT, u, u*w.FFTNs)
		add(obs.StageMesh, n3, n3*w.GridNs)
	case "tme", "msm":
		levels := max(p.Levels, 1)
		if p.Method == "tme" {
			var convUnits float64
			for l := 0; l < levels; l++ {
				convUnits += perfmodel.CompCostTME(p.Gc, n>>l, p.M)
			}
			add(obs.StageConv, convUnits, convUnits*w.ConvNs)
		} else {
			convUnits := perfmodel.CompCostMSM(p.Gc, n)
			add(obs.StageConv, convUnits, convUnits*w.ConvDirectNs)
		}
		u := 2 * fftUnits(n>>levels)
		add(obs.StageFFT, u, u*w.FFTNs)
		gridUnits := 2 * n3 * order
		add(obs.StageMesh, gridUnits, gridUnits*w.GridNs)
	}

	add(obs.StageShortRange, atoms, atoms*w.ExclNs)
	add(obs.StageStep, atoms, atoms*w.AtomNs)
	return rows
}
