// Package serve is the MD-as-a-service tier: a job API over the engine
// that multiplexes many concurrent simulations across the one shared
// worker pool (internal/par), the software analogue of MDGRAPE-4A pushing
// many workloads through a single accelerator pipeline.
//
// The package splits into three layers:
//
//   - Spec (this file): the validated JSON job description — a
//     solver.Config plus box and step budget. Every trajectory served is
//     a pure function of its Spec, so per-job results are bitwise
//     reproducible regardless of what else the daemon is running.
//   - Scheduler (sched.go, job.go): fair round-robin multiplexing in
//     bounded step quanta with admission control, backpressure and
//     crash-consistent durability on internal/ckpt.
//   - Server (http.go): the stdlib HTTP/JSON surface cmd/mdserve exposes.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"tme4a/internal/ckpt"
	"tme4a/internal/md"
	"tme4a/internal/solver"
	"tme4a/internal/tune"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// Spec is one job description: which long-range method to run, on how
// large a TIP3P water box, for how many steps. The zero value of every
// optional field selects a documented default (Normalize), so a minimal
// submission is {"method":"tme","side":4,"steps":200}. A Spec fully
// determines its trajectory: same spec, same bits, on any daemon at any
// GOMAXPROCS.
type Spec struct {
	// Name is a free-form label echoed in listings.
	Name string `json:"name,omitempty"`
	// Method is "cutoff" (erfc-screened short range only), any solver
	// method (msm, spme, tme), or "auto": admission plans the
	// cheapest tuner configuration predicted to meet ErrBudget
	// (internal/tune) and rewrites this spec to the concrete result, so
	// the config hash and the stored job carry the resolved plan, never
	// the word "auto". Default "tme".
	Method string `json:"method,omitempty"`
	// Kernel selects the TME middle-range family: "", "gauss", "useries".
	Kernel string `json:"kernel,omitempty"`
	// Side is the number of water molecules per box edge (side³ molecules,
	// 3·side³ atoms). Default 4.
	Side int `json:"side,omitempty"`
	// Steps is the total trajectory length in 1 fs steps. Required.
	Steps int `json:"steps"`
	// Dt is the time step in ps. Default 0.001.
	Dt float64 `json:"dt,omitempty"`
	// Rc is the short-range cutoff in nm; 0 selects min(0.9, 0.45·L) for
	// the spec's box edge L. Must stay below half the box.
	Rc float64 `json:"rc,omitempty"`
	// Grid is the mesh points per axis. Default 16.
	Grid int `json:"grid,omitempty"`
	// M is the TME Gaussians per middle-range shell. Default 3.
	M int `json:"m,omitempty"`
	// Gc is the grid-kernel cutoff (TME/MSM). Default 8.
	Gc int `json:"gc,omitempty"`
	// Levels is the TME/MSM middle-level count. Default 1.
	Levels int `json:"levels,omitempty"`
	// Skin is the Verlet buffer in nm. Zero in the JSON means "unset", so
	// it selects the default 0.1; a served job cannot ask for skin 0.
	Skin float64 `json:"skin,omitempty"`
	// Temp is the initial temperature in K. Default 300.
	Temp float64 `json:"temp,omitempty"`
	// Seed feeds box building, equilibration and the velocity draw. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// Equil is the number of cheap thermalization steps before the served
	// trajectory starts. Default 50.
	Equil int `json:"equil,omitempty"`
	// ErrBudget is the relative force-error budget for method "auto".
	// Required (and only meaningful) there; it stays on the resolved spec
	// and in the config hash as a record of what the plan promised.
	ErrBudget float64 `json:"err_budget,omitempty"`

	// autoErr records a planning failure from Normalize's method-"auto"
	// resolution; Validate surfaces it. Unexported on purpose: resolution
	// happens once at admission, stored specs are already concrete.
	autoErr error
}

// Admission bounds. The service refuses work it cannot multiplex fairly:
// boxes above maxSide monopolize the pool for seconds per quantum, and
// step budgets above maxSteps would pin a slot for hours.
const (
	minSide  = 2
	maxSide  = 24
	maxSteps = 1_000_000
	maxEquil = 5_000
	maxDt    = 0.01
	maxTemp  = 1_000
	// maxGrid/maxLevels bound the mesh a single job may request: a 64³
	// complex grid is already ~4 MiB of scratch per job.
	maxGrid   = 64
	maxLevels = 6
)

// maxSpecBytes bounds a submitted spec document; anything larger is
// rejected before JSON decoding allocates.
const maxSpecBytes = 1 << 16

// DecodeSpec parses a JSON job spec strictly: unknown fields, trailing
// data and oversized documents are errors, so a typo like "sides" cannot
// silently select a default box.
func DecodeSpec(data []byte) (Spec, error) {
	var sp Spec
	if len(data) > maxSpecBytes {
		return sp, fmt.Errorf("serve: spec document is %d bytes, limit %d", len(data), maxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sp, fmt.Errorf("serve: decoding spec: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return sp, errors.New("serve: trailing data after spec document")
	}
	return sp, nil
}

// Normalize fills defaulted fields in place. It is idempotent and is
// applied before Validate, so a stored spec re-normalizes to itself and
// the config hash is stable across submit/restart.
func (sp *Spec) Normalize() {
	if sp.Method == "" {
		sp.Method = "tme"
	}
	if sp.Side == 0 {
		sp.Side = 4
	}
	if sp.Method == "auto" {
		sp.resolveAuto()
	}
	if sp.Dt == 0 {
		sp.Dt = 0.001
	}
	if sp.Rc == 0 && sp.Side >= minSide {
		sp.Rc = math.Min(0.9, 0.45*sp.Box().L[0])
	}
	if sp.Grid == 0 {
		sp.Grid = 16
	}
	if sp.M == 0 {
		sp.M = 3
	}
	if sp.Gc == 0 {
		sp.Gc = 8
	}
	if sp.Levels == 0 {
		sp.Levels = 1
	}
	if sp.Skin == 0 {
		sp.Skin = 0.1
	}
	if sp.Temp == 0 {
		sp.Temp = 300
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Equil == 0 {
		sp.Equil = 50
	}
}

// resolveAuto rewrites a method-"auto" spec to the concrete plan the
// tuner picks for its box and error budget. Planning failures (budget
// out of range, infeasible budget) are parked in autoErr for Validate —
// Normalize cannot return one. The plan fully determines method, kernel,
// cutoff, grid, and mesh parameters; a skinless plan still runs with the
// spec-default Verlet skin (the skin changes step cost, never accuracy).
func (sp *Spec) resolveAuto() {
	if sp.Side < minSide || sp.Side > maxSide {
		sp.autoErr = fmt.Errorf("serve: side %d out of range [%d, %d]", sp.Side, minSide, maxSide)
		return
	}
	plan, err := tune.PlanFor(tune.Request{
		Box: sp.Box(), Atoms: 3 * sp.Side * sp.Side * sp.Side, ErrBudget: sp.ErrBudget,
	})
	if err != nil {
		sp.autoErr = fmt.Errorf("serve: auto planning: %w", err)
		return
	}
	sp.Method = plan.Method
	sp.Kernel = plan.Kernel
	sp.Rc = plan.Rc
	sp.Grid = plan.Grid[0]
	sp.Skin = plan.Skin
	if plan.M > 0 {
		sp.M = plan.M
	}
	if plan.Gc > 0 {
		sp.Gc = plan.Gc
	}
	if plan.Levels > 0 {
		sp.Levels = plan.Levels
	}
}

// Box returns the cubic box the spec's molecule count fills at ambient
// density.
func (sp Spec) Box() vec.Box {
	return water.CubicBoxFor(sp.Side * sp.Side * sp.Side)
}

// Validate checks every field and, for mesh methods, asks solver.Validate —
// which builds nothing — so the per-package Params.Validate errors (odd
// order, non-power-of-two grid, out-of-range u-series M, unknown kernel)
// surface verbatim in the API response. The spec must be normalized.
func (sp Spec) Validate() error {
	if sp.autoErr != nil {
		return sp.autoErr
	}
	if sp.ErrBudget != 0 && (sp.ErrBudget < 0 || sp.ErrBudget > 0.5 || sp.ErrBudget != sp.ErrBudget) {
		return fmt.Errorf("serve: err_budget %g out of range (0, 0.5]", sp.ErrBudget)
	}
	if sp.Side < minSide || sp.Side > maxSide {
		return fmt.Errorf("serve: side %d out of range [%d, %d]", sp.Side, minSide, maxSide)
	}
	if sp.Steps <= 0 {
		return fmt.Errorf("serve: steps %d must be positive", sp.Steps)
	}
	if sp.Steps > maxSteps {
		return fmt.Errorf("serve: steps %d exceeds the %d-step budget", sp.Steps, maxSteps)
	}
	if sp.Dt <= 0 || sp.Dt > maxDt {
		return fmt.Errorf("serve: dt %g ps out of range (0, %g]", sp.Dt, maxDt)
	}
	half := sp.Box().L[0] / 2
	if sp.Rc <= 0 || sp.Rc >= half {
		return fmt.Errorf("serve: rc %g nm must lie in (0, %g) for a side-%d box", sp.Rc, half, sp.Side)
	}
	if sp.Skin < 0 || sp.Skin > 0.5 {
		return fmt.Errorf("serve: skin %g nm out of range [0, 0.5]", sp.Skin)
	}
	if err := sp.plan().Check(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if sp.Temp <= 0 || sp.Temp > maxTemp {
		return fmt.Errorf("serve: temp %g K out of range (0, %g]", sp.Temp, float64(maxTemp))
	}
	if sp.Equil < 0 || sp.Equil > maxEquil {
		return fmt.Errorf("serve: equil %d out of range [0, %d]", sp.Equil, maxEquil)
	}
	// Mesh-size admission bounds, checked before any solver is built so a
	// hostile spec cannot make Validate itself allocate a huge grid.
	if sp.Grid < 4 || sp.Grid > maxGrid {
		return fmt.Errorf("serve: grid %d out of range [4, %d]", sp.Grid, maxGrid)
	}
	if sp.Levels < 1 || sp.Levels > maxLevels {
		return fmt.Errorf("serve: levels %d out of range [1, %d]", sp.Levels, maxLevels)
	}
	if sp.M < 1 || sp.M > 64 {
		return fmt.Errorf("serve: m %d out of range [1, 64]", sp.M)
	}
	if sp.Gc < 1 || sp.Gc > 64 {
		return fmt.Errorf("serve: gc %d out of range [1, 64]", sp.Gc)
	}
	if sp.Method != "cutoff" {
		return solver.Validate(sp.Method, sp.plan().SolverConfig())
	}
	return nil
}

// canonical renders every trajectory-shaping parameter into the string
// the checkpoint config hash fingerprints; resuming a job under an edited
// spec is refused by the store.
func (sp Spec) canonical() string {
	return fmt.Sprintf(
		"serve method=%s kernel=%s side=%d steps=%d dt=%g rc=%g grid=%d M=%d gc=%d L=%d skin=%g T=%g seed=%d equil=%d errbudget=%g rtol=1e-4",
		sp.Method, sp.Kernel, sp.Side, sp.Steps, sp.Dt, sp.Rc, sp.Grid, sp.M, sp.Gc,
		sp.Levels, sp.Skin, sp.Temp, sp.Seed, sp.Equil, sp.ErrBudget)
}

// ConfigHash fingerprints the normalized spec for the checkpoint store.
func (sp Spec) ConfigHash() uint64 { return ckpt.ConfigHash(sp.canonical()) }

// plan maps the spec onto the run plan every entry point builds from. Its
// NewIntegrator constructs a fresh solver on every call, so concurrent
// jobs never share solver scratch.
func (sp Spec) plan() tune.Plan {
	return tune.Plan{
		Method: sp.Method, Kernel: sp.Kernel, Rc: sp.Rc, Skin: sp.Skin,
		Grid: [3]int{sp.Grid, sp.Grid, sp.Grid}, Gc: sp.Gc, M: sp.M, Levels: sp.Levels,
		Order: tune.Order,
	}
}

// fresh builds the job's initial state (lattice, cheap thermalization,
// velocity draw at the spec's temperature) and builder record; pure.
func (sp Spec) fresh() (*md.System, map[string]int64, error) {
	sys := water.Fresh(sp.Side, sp.Seed, sp.Equil, sp.Dt, sp.Temp, sp.Rc)
	water.Draw(sys, sp.Temp, sp.Seed)
	return sys, water.Meta(sp.Side, sp.Seed), nil
}

// RunDirect executes the spec's full trajectory in-process, outside any
// scheduler, and returns the bitwise state hash of the final step. It is
// the reference the served trajectories must match exactly — the tests'
// single-job twin of a multiplexed run.
func (sp Spec) RunDirect() (uint64, error) {
	sp.Normalize()
	if err := sp.Validate(); err != nil {
		return 0, err
	}
	sys, _, err := sp.fresh()
	if err != nil {
		return 0, err
	}
	integ, err := sp.plan().NewIntegrator(sys.Box, sp.Dt)
	if err != nil {
		return 0, err
	}
	for s := 0; s < sp.Steps; s++ {
		integ.Step(sys)
	}
	return md.StateHash(sys), nil
}
