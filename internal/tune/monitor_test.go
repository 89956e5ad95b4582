package tune

import (
	"math"
	"testing"

	"tme4a/internal/obs"
	"tme4a/internal/water"
)

// advance extends a cumulative obs profile by a window of steps steps
// whose per-step short-range and mesh costs are the monitor's current
// prediction scaled by rShort and rMesh.
func advance(m *Monitor, prev obs.Profile, steps int64, rShort, rMesh float64) obs.Profile {
	b := m.Weights().StepCost(m.req, m.Plan())
	p := prev
	p.Ns[obs.StageShortRange] += int64(b.Within(obs.StageShortRange) * rShort * float64(steps))
	p.Ns[obs.StageMesh] += int64(b.Within(obs.StageMesh) * rMesh * float64(steps))
	p.Count[obs.StageShortRange] += steps
	p.Count[obs.StageMesh] += steps
	return p
}

func monitorUnderTest(t *testing.T, budget float64) *Monitor {
	t.Helper()
	req := Request{Box: water.CubicBoxFor(4096), Atoms: 12288, ErrBudget: budget}
	plan, err := PlanFor(req)
	if err != nil {
		t.Fatalf("PlanFor: %v", err)
	}
	return NewMonitor(req, plan)
}

// TestMonitorStableWhenOnModel: timings matching the prediction never
// trigger a retune.
func TestMonitorStableWhenOnModel(t *testing.T) {
	m := monitorUnderTest(t, 1e-3)
	orig := m.Plan()
	cum := advance(m, obs.Profile{}, 100, 1, 1)
	if _, changed := m.Observe(cum, 100); changed {
		t.Fatal("baseline observation triggered a retune")
	}
	for i := int64(2); i <= 5; i++ {
		cum = advance(m, cum, 100, 1, 1)
		p, changed := m.Observe(cum, 100*i)
		if changed || !samePlanID(p, orig) {
			t.Fatalf("on-model window %d changed the plan", i)
		}
	}
	if m.Weights() != DefaultWeights() {
		t.Error("on-model observations recalibrated the weights")
	}
}

// TestMonitorUniformDriftKeepsPlan: a machine uniformly 3× slower than
// the model recalibrates the weights but keeps the plan — scaling both
// groups equally cannot flip any ranking.
func TestMonitorUniformDriftKeepsPlan(t *testing.T) {
	m := monitorUnderTest(t, 1e-3)
	orig := m.Plan()
	cum := advance(m, obs.Profile{}, 100, 1, 1)
	m.Observe(cum, 100)
	cum = advance(m, cum, 100, 3, 3)
	p, changed := m.Observe(cum, 200)
	if changed || !samePlanID(p, orig) {
		t.Fatalf("uniform drift changed the plan to %s", p.String())
	}
	if w := m.Weights(); math.Abs(w.PairNs/DefaultWeights().PairNs-3) > 0.2 {
		t.Errorf("PairNs rescaled to %.1f, want ≈3× default", w.PairNs)
	}
}

// TestMonitorExclFollowsShortRange: the exclusion corrections run in the
// pair loop, so their weight moves with the short-range group's drift and
// not with the mesh's.
func TestMonitorExclFollowsShortRange(t *testing.T) {
	for _, tc := range []struct {
		name          string
		rShort, rMesh float64
		wantExcl      float64 // ExclNs over its default
	}{
		{"short drifts", 2, 1, 2},
		{"mesh drifts", 1, 2, 1},
	} {
		m := monitorUnderTest(t, 1e-3)
		cum := advance(m, obs.Profile{}, 100, 1, 1)
		m.Observe(cum, 100)
		cum = advance(m, cum, 100, tc.rShort, tc.rMesh)
		m.Observe(cum, 200)
		w, d := m.Weights(), DefaultWeights()
		if got := w.ExclNs / d.ExclNs; math.Abs(got-tc.wantExcl) > 1e-6 {
			t.Errorf("%s: ExclNs scaled by %.6f, want %g", tc.name, got, tc.wantExcl)
		}
		if got := w.AssignNs / d.AssignNs; math.Abs(got-tc.rMesh) > 1e-6 {
			t.Errorf("%s: AssignNs scaled by %.6f, want %g", tc.name, got, tc.rMesh)
		}
	}
}

// TestMonitorMeshDriftRetunes: on hardware where the mesh pipeline runs
// far slower than modeled, the monitor re-plans toward a plan that
// spends less in the mesh (larger cutoff and/or coarser grid), while
// still meeting the budget under the recalibrated model.
func TestMonitorMeshDriftRetunes(t *testing.T) {
	m := monitorUnderTest(t, 1e-4)
	orig := m.Plan()
	cum := advance(m, obs.Profile{}, 100, 1, 1)
	m.Observe(cum, 100)
	cum = advance(m, cum, 100, 1, 200)
	p, changed := m.Observe(cum, 200)
	if !changed {
		t.Fatalf("200× mesh drift did not retune from %s", orig.String())
	}
	if samePlanID(p, orig) {
		t.Fatal("changed=true but identical plan")
	}
	// Under the recalibrated weights, the new plan must spend less in the
	// mesh than the old one would — that is what the retune bought.
	w := m.Weights()
	if newMesh, oldMesh := w.StepCost(m.req, p).Within(obs.StageMesh), w.StepCost(m.req, orig).Within(obs.StageMesh); newMesh >= oldMesh {
		t.Errorf("retuned plan %s mesh cost %.1f not below original %s's %.1f",
			p.String(), newMesh, orig.String(), oldMesh)
	}
	if p.PredErr > 1e-4 {
		t.Errorf("retuned plan %s predicts %.3e over budget", p.String(), p.PredErr)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("retuned plan invalid: %v", err)
	}
}

// TestMonitorDegenerateWindows: empty or non-advancing windows are
// ignored rather than poisoning the calibration.
func TestMonitorDegenerateWindows(t *testing.T) {
	m := monitorUnderTest(t, 1e-3)
	orig := m.Plan()
	cum := advance(m, obs.Profile{}, 100, 1, 1)
	m.Observe(cum, 100)
	// No step progress.
	if _, changed := m.Observe(cum, 100); changed {
		t.Error("zero-step window retuned")
	}
	// Zero measured time (untimed run: nil recorder).
	if _, changed := m.Observe(obs.Profile{}, 300); changed {
		t.Error("untimed window retuned")
	}
	if !samePlanID(m.Plan(), orig) || m.Weights() != DefaultWeights() {
		t.Error("degenerate windows altered monitor state")
	}
}

// TestMonitorInfeasibleRecalibrationKeepsPlan: if honest weights make the
// budget unreachable, the monitor keeps the current plan rather than
// abandoning the run mid-flight.
func TestMonitorInfeasibleRecalibrationKeepsPlan(t *testing.T) {
	m := monitorUnderTest(t, 6.5e-5) // barely feasible at default weights
	orig := m.Plan()
	cum := advance(m, obs.Profile{}, 100, 1, 1)
	m.Observe(cum, 100)
	// Enormous uniform drift: re-planning still finds the same feasible
	// set, so the plan must not change; a degenerate Inf ratio must not
	// pass validation either way.
	cum = advance(m, cum, 100, 1e6, 1e6)
	p, changed := m.Observe(cum, 200)
	if changed || !samePlanID(p, orig) {
		t.Errorf("extreme uniform drift changed plan to %s", p.String())
	}
}

// TestMonitorNestedRebuildOnModel: the pair-list rebuild's span nests
// inside the short-range span, so a window whose short-range stage equals
// the predicted short group, rebuild included, is on the model however
// large the rebuild, and changes neither the weights nor the plan.
func TestMonitorNestedRebuildOnModel(t *testing.T) {
	w := DefaultWeights()
	w.DriftPerStep = 1 // every skin is crossed in one step: rebuild every step
	w.RebuildPairNs *= 3
	req := Request{Box: water.CubicBoxFor(4096), Atoms: 12288, ErrBudget: 1e-3, Weights: &w}
	plan, err := PlanFor(req)
	if err != nil {
		t.Fatalf("PlanFor: %v", err)
	}
	m := NewMonitor(req, plan)
	b := w.StepCost(req, plan)
	short, rebuild, mesh := b.Within(obs.StageShortRange), b.Within(obs.StageNeighbor), b.Within(obs.StageMesh)
	if rebuild/short <= DefaultDriftThreshold {
		t.Fatalf("%s: rebuild is %.0f%% of the short group, want over the %.0f%% threshold",
			plan.String(), 100*rebuild/short, 100*DefaultDriftThreshold)
	}
	var cum obs.Profile
	for i := int64(1); i <= 3; i++ {
		const steps = 100
		cum.Ns[obs.StageShortRange] += int64(short * steps)
		cum.Ns[obs.StageNeighbor] += int64(rebuild * steps)
		cum.Ns[obs.StageMesh] += int64(mesh * steps)
		cum.Count[obs.StageShortRange] += steps
		cum.Count[obs.StageNeighbor] += steps
		cum.Count[obs.StageMesh] += steps
		if _, changed := m.Observe(cum, steps*i); changed {
			t.Fatalf("window %d: on-model profile changed the plan", i)
		}
	}
	if m.Weights() != w || m.Plan() != plan {
		t.Errorf("on-model profile moved the monitor: weights %+v, plan %s", m.Weights(), m.Plan().String())
	}
}
