package tune

import (
	"tme4a/internal/obs"
)

// Monitor watches live per-stage timings (obs.Profile snapshots taken at
// checkpoint boundaries) and re-plans when the measured costs drift from
// the cost model's prediction. It never reads a clock itself — the obs
// recorder owns the clock seam — so a monitor driven by a scripted
// profile is fully deterministic, and the production one is exactly as
// deterministic as its timing inputs.
//
// The feedback loop is multiplicative: when the measured short-range or
// mesh group runs r× the predicted cost, the group's weights are scaled
// by r and the request is re-planned under the recalibrated weights. The
// plan only changes when the reweighted ranking actually flips, so a
// uniformly slow machine (both groups drift together) keeps its plan.
type Monitor struct {
	req     Request
	plan    Plan
	weights Weights

	base      obs.Profile
	baseSteps int64
	haveBase  bool
}

// DefaultDriftThreshold is the re-plan trigger, the relative drift past
// which a measured/predicted ratio (outside [1/1.3, 1.3] on either stage
// group) re-plans: the cost model's stage weights are trusted to roughly
// ±30%; beyond that the measurements, not the priors, should pick the
// plan.
const DefaultDriftThreshold = 0.3

// NewMonitor starts monitoring a running plan. The request should be the
// one the plan was made from; the monitor re-plans through it.
func NewMonitor(req Request, plan Plan) *Monitor {
	w := DefaultWeights()
	if req.Weights != nil {
		w = *req.Weights
	}
	return &Monitor{req: req, plan: plan, weights: w}
}

// Observe ingests the cumulative profile at a checkpoint boundary after
// stepsDone completed steps. The first call establishes the baseline
// window. Later calls diff against the previous boundary, compare the
// measured short-range and mesh group costs per step against the model's
// prediction, and — when either group drifts past the threshold —
// recalibrate the weights from the measurement and re-plan.
//
// It returns the plan that should run from this boundary on and whether
// that is a change. A changed plan must be installed through Switch at
// this boundary (that is what keeps the retune bitwise-resumable); the
// monitor assumes the caller does so.
func (m *Monitor) Observe(p obs.Profile, stepsDone int64) (Plan, bool) {
	if !m.haveBase {
		m.base, m.baseSteps, m.haveBase = p, stepsDone, true
		return m.plan, false
	}
	window := p.Delta(m.base)
	steps := stepsDone - m.baseSteps
	if steps <= 0 {
		return m.plan, false
	}
	m.base, m.baseSteps = p, stepsDone

	// Each predicted group, the rows within a stage, is compared with that
	// stage's measured time alone: the short range (pair loop, exclusion
	// corrections and the list rebuild, whose span nests in it) and the
	// mesh.
	monitored := [...]obs.Stage{obs.StageShortRange, obs.StageMesh}
	pred := m.weights.StepCost(m.req, m.plan)
	var r [len(monitored)]float64
	t, drift := 1+DefaultDriftThreshold, false
	for i, g := range monitored {
		got := float64(window.StageNs(g)) / float64(steps)
		want := pred.Within(g)
		if got <= 0 || want <= 0 {
			return m.plan, false // window too small or untimed; nothing to learn
		}
		r[i] = got / want
		drift = drift || r[i] >= t || 1/r[i] >= t
	}
	if !drift {
		return m.plan, false
	}

	// Recalibrate: scale each group's prices by its measured ratio, then
	// re-plan under the corrected model.
	w := m.weights
	for _, f := range w.prices() {
		for i, g := range monitored {
			if f.stage.Within(g) {
				*f.v *= r[i]
			}
		}
	}
	if w.validate() != nil {
		return m.plan, false // a degenerate ratio (Inf/NaN) must not poison the model
	}
	req := m.req
	req.Weights = &w
	plan, err := PlanFor(req)
	if err != nil {
		// The budget became infeasible under honest weights: keep the most
		// accurate plan we had rather than abandoning the run.
		return m.plan, false
	}
	m.weights = w
	m.req = req
	if samePlanID(plan, m.plan) {
		m.plan = plan // predictions refreshed, identity unchanged
		return m.plan, false
	}
	m.plan = plan
	return m.plan, true
}

// samePlanID reports whether two plans are the same run configuration,
// ignoring the predicted error/cost annotations.
func samePlanID(a, b Plan) bool {
	a.PredErr, a.PredMs = 0, 0
	b.PredErr, b.PredMs = 0, 0
	return a == b
}
