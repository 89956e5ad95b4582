// Package tune closes the loop between the repository's calibrated cost
// model (internal/perfmodel), the measured Table-1 accuracy surface
// (results/table1.csv) and the live per-stage timings (internal/obs):
// given a box, an atom count and a force-error budget, it enumerates
// every candidate plan over the registered long-range solvers (SPME, TME
// with the gauss and u-series kernel families, B-spline MSM), scores each
// with per-stage cost rows plus a surface-fit error estimate, and emits a
// deterministic Plan — method, kernel, cutoff, grid, g_c, M and Verlet
// skin.
//
// The tuner runs in two regimes:
//
//   - At startup, PlanFor picks the cheapest candidate whose predicted
//     force error meets the budget (mdrun -tune, serve's "auto" method,
//     the frontier experiment).
//
//   - Online, a Monitor watches the live obs stage profile; when measured
//     per-stage costs drift from the model's prediction past a threshold,
//     it recalibrates the cost weights from the measurement and re-plans.
//     The switch itself (Switch) goes through the plain checkpoint state,
//     so a mid-run retune inherits internal/ckpt's bitwise-resume
//     guarantees: the retuned trajectory is bit-identical to a fresh run
//     started from that plan's state (TestRetuneBitwise).
//
// Everything in this package is a pure function of its inputs — no clock,
// no maps ranged for results, no randomness — so the same request always
// yields the same plan, the decision table is byte-pinned, and a plan can
// participate in checkpoint config hashes.
package tune

import (
	"fmt"
	"math"
	"sort"

	"tme4a/internal/perfmodel"
	"tme4a/internal/vec"
)

// RTol is the erfc(α·rc) force tolerance every plan shares — the paper's
// ewald-rtol = 1e-4 convention (the Table-1 surface the error estimator
// is fit to was measured at this tolerance, so plans must not vary it).
const RTol = 1e-4

// Order is the B-spline interpolation order of every plan (the paper's
// hardware operating point; the accuracy surface was measured at p = 6).
const Order = 6

// Request asks the tuner for a plan.
type Request struct {
	// Box is the periodic simulation box.
	Box vec.Box
	// Atoms is the number of charged particles.
	Atoms int
	// ErrBudget is the maximum acceptable relative force error
	// (Table 1's metric: RMS force deviation over the Ewald reference).
	ErrBudget float64
	// Weights overrides the cost-model calibration; nil selects
	// DefaultWeights. The online monitor re-plans through this field.
	Weights *Weights
}

// Plan is the tuner's output: a complete, validated parameterization of a
// run. A Plan is a pure function of its Request, so it can be embedded in
// checkpoint config hashes and golden decision tables.
type Plan struct {
	Method string  // "spme", "tme" or "msm"
	Kernel string  // TME middle-range family: "" (gauss), "gauss", "useries"
	Rc     float64 // short-range cutoff (nm)
	Skin   float64 // Verlet buffer (nm); 0 rebuilds the pair list every step
	Grid   [3]int  // mesh points per axis
	Gc     int     // grid-kernel cutoff (TME/MSM; 0 for SPME)
	M      int     // Gaussians per middle-range shell (TME; 0 otherwise)
	Levels int     // middle-range levels (TME/MSM; 0 for SPME)
	Order  int     // B-spline order

	// PredErr is the estimated relative force error (surface fit).
	PredErr float64
	// PredMs is the modeled step time in milliseconds.
	PredMs float64
}

// Candidate is one scored plan of an enumeration.
type Candidate struct {
	Plan
	// Feasible reports whether PredErr meets the request's budget.
	Feasible bool
	// Cost is the per-stage breakdown behind PredMs.
	Cost perfmodel.Breakdown
}

// RequestError reports an invalid tuning request field.
type RequestError struct {
	Field  string
	Reason string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("tune: invalid request: %s %s", e.Field, e.Reason)
}

// InfeasibleError reports that no candidate meets the error budget. Best
// carries the most accurate candidate considered, so callers can report
// how far the budget is from achievable.
type InfeasibleError struct {
	Budget  float64
	BestErr float64
	Best    Plan
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("tune: no plan meets error budget %.3g (best achievable %.3g: %s)",
		e.Budget, e.BestErr, e.Best.String())
}

// String renders the plan's identity (everything but the predictions).
func (p Plan) String() string {
	switch p.Method {
	case "spme":
		return fmt.Sprintf("spme rc=%g grid=%d skin=%g", p.Rc, p.Grid[0], p.Skin)
	case "tme":
		return fmt.Sprintf("tme/%s rc=%g grid=%d gc=%d M=%d skin=%g",
			p.kernelOrDefault(), p.Rc, p.Grid[0], p.Gc, p.M, p.Skin)
	case "msm":
		return fmt.Sprintf("msm rc=%g grid=%d gc=%d skin=%g", p.Rc, p.Grid[0], p.Gc, p.Skin)
	}
	return fmt.Sprintf("%s rc=%g grid=%d", p.Method, p.Rc, p.Grid[0])
}

func (p Plan) kernelOrDefault() string {
	if p.Kernel == "" {
		return "gauss"
	}
	return p.Kernel
}

// Request bounds. Outside these the model has no data to stand on and the
// tuner answers with a typed error instead of a guess.
const (
	minBoxEdge   = 0.6
	maxBoxEdge   = 100
	maxAspect    = 8
	minAtoms     = 12
	maxAtoms     = 100_000_000
	minBudget    = 1e-6
	maxBudget    = 0.5
	maxGridDim   = 64
	minGridDim   = 8
	maxSkin      = 0.1
	minKernelW   = 2.5 // minimum g_c·α·h window coverage the surface supports
	maxXStretch  = 1.1 // how far above the surface's α·h range estimates may extrapolate
	boxEdgeShare = 0.49
)

// validate checks the request against the model's supported envelope.
func (r Request) validate() error {
	lmin, lmax := math.Inf(1), 0.0
	for k := 0; k < 3; k++ {
		l := r.Box.L[k]
		if !isFinite(l) || l <= 0 {
			return &RequestError{Field: "box", Reason: fmt.Sprintf("edge %d is %g, want finite and positive", k, l)}
		}
		lmin = math.Min(lmin, l)
		lmax = math.Max(lmax, l)
	}
	if lmin < minBoxEdge || lmax > maxBoxEdge {
		return &RequestError{Field: "box", Reason: fmt.Sprintf("edges %.3g..%.3g nm outside the supported [%g, %g]", lmin, lmax, float64(minBoxEdge), float64(maxBoxEdge))}
	}
	if lmax/lmin > maxAspect {
		return &RequestError{Field: "box", Reason: fmt.Sprintf("aspect ratio %.3g exceeds %d", lmax/lmin, maxAspect)}
	}
	if r.Atoms < minAtoms || r.Atoms > maxAtoms {
		return &RequestError{Field: "atoms", Reason: fmt.Sprintf("%d outside [%d, %d]", r.Atoms, minAtoms, maxAtoms)}
	}
	if !isFinite(r.ErrBudget) || r.ErrBudget < minBudget || r.ErrBudget > maxBudget {
		return &RequestError{Field: "err_budget", Reason: fmt.Sprintf("%g outside [%g, %g]", r.ErrBudget, minBudget, maxBudget)}
	}
	if r.Weights != nil {
		if err := r.Weights.validate(); err != nil {
			return err
		}
	}
	return nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// rcCandidates returns the cutoffs worth considering: the Table-1 sweep
// values that fit the box, or a box-proportional fallback for boxes too
// small for any of them.
func rcCandidates(lmin float64) []float64 {
	var rcs []float64
	for _, rc := range []float64{1.0, 1.25, 1.5} {
		if rc < boxEdgeShare*lmin {
			rcs = append(rcs, rc)
		}
	}
	if len(rcs) == 0 {
		rcs = append(rcs, 0.35*lmin)
	}
	return rcs
}

// gridCandidates returns the cubic mesh sizes worth considering.
func gridCandidates() []int { return []int{8, 16, 32, 64} }

// Enumerate scores every candidate plan for the request, cheapest first.
// The order is a total order (cost, then method/kernel/grid/gc/M/rc/skin),
// so the listing — and hence PlanFor's pick — is deterministic.
func Enumerate(req Request) ([]Candidate, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	w := DefaultWeights()
	if req.Weights != nil {
		w = *req.Weights
	}
	lmin := math.Min(req.Box.L[0], math.Min(req.Box.L[1], req.Box.L[2]))
	hmax := func(n int) float64 {
		h := 0.0
		for k := 0; k < 3; k++ {
			h = math.Max(h, req.Box.L[k]/float64(n))
		}
		return h
	}

	var out []Candidate
	add := func(p Plan) {
		p.Order = Order
		cost := w.StepCost(req, p)
		p.PredMs = cost.Total() * 1e-6
		out = append(out, Candidate{
			Plan:     p,
			Feasible: p.PredErr <= req.ErrBudget,
			Cost:     cost,
		})
	}

	for _, rc := range rcCandidates(lmin) {
		alpha := alphaFor(rc)
		for _, skin := range []float64{0, maxSkin} {
			if rc+skin >= boxEdgeShare*lmin+1e-12 {
				continue
			}
			for _, n := range gridCandidates() {
				x := alpha * hmax(n)
				if x > maxXStretch*surfaceXMax() {
					continue // grid too coarse for the surface to certify
				}
				grid := [3]int{n, n, n}
				// SPME: no middle-range knobs.
				est, ok := estimateSPME(x)
				if ok && n >= minGridDim {
					add(Plan{Method: "spme", Rc: rc, Skin: skin, Grid: grid, PredErr: est})
				}
				// TME and MSM need a top grid ≥ the spline order.
				if n/2 < Order {
					continue
				}
				for _, gc := range surfaceGcs() {
					if float64(gc)*x < minKernelW {
						continue // kernel window too narrow for the surface to certify
					}
					for _, kernel := range []string{"gauss", "useries"} {
						for m := 1; m <= 4; m++ {
							est, ok := estimateTME(kernel, gc, m, x)
							if !ok {
								continue
							}
							add(Plan{Method: "tme", Kernel: kernel, Rc: rc, Skin: skin,
								Grid: grid, Gc: gc, M: m, Levels: 1, PredErr: est})
						}
					}
					if est, ok := estimateMSM(gc, x); ok {
						add(Plan{Method: "msm", Rc: rc, Skin: skin, Grid: grid,
							Gc: gc, Levels: 1, PredErr: est})
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, &InfeasibleError{Budget: req.ErrBudget, BestErr: math.Inf(1)}
	}
	sort.SliceStable(out, func(i, j int) bool { return planLess(out[i], out[j]) })
	return out, nil
}

// planLess is the total order of a candidate listing: cheaper first, ties
// broken on the full plan identity so equal-cost candidates still sort
// deterministically.
func planLess(a, b Candidate) bool {
	if a.PredMs != b.PredMs {
		return a.PredMs < b.PredMs
	}
	if a.PredErr != b.PredErr {
		return a.PredErr < b.PredErr
	}
	if a.Method != b.Method {
		return a.Method < b.Method
	}
	if a.Kernel != b.Kernel {
		return a.Kernel < b.Kernel
	}
	if a.Grid[0] != b.Grid[0] {
		return a.Grid[0] < b.Grid[0]
	}
	if a.Gc != b.Gc {
		return a.Gc < b.Gc
	}
	if a.M != b.M {
		return a.M < b.M
	}
	if a.Rc != b.Rc {
		return a.Rc < b.Rc
	}
	return a.Skin < b.Skin
}

// PlanFor returns the cheapest plan whose predicted error meets the
// request's budget. It returns *RequestError for requests outside the
// model's envelope and *InfeasibleError when no candidate fits the
// budget; it never panics.
func PlanFor(req Request) (Plan, error) {
	cands, err := Enumerate(req)
	if err != nil {
		return Plan{}, err
	}
	for _, c := range cands {
		if c.Feasible {
			return c.Plan, nil
		}
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.PredErr < best.PredErr {
			best = c
		}
	}
	return Plan{}, &InfeasibleError{Budget: req.ErrBudget, BestErr: best.PredErr, Best: best.Plan}
}
