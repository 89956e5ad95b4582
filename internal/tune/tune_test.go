package tune

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"tme4a/internal/obs"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

func table1Request() Request {
	return Request{Box: water.CubicBoxFor(4096), Atoms: 12288, ErrBudget: 1e-3}
}

// TestPlanForDeterministic re-plans the same request many times and
// demands identical output — the property that lets a plan participate in
// checkpoint config hashes.
func TestPlanForDeterministic(t *testing.T) {
	req := table1Request()
	first, err := PlanFor(req)
	if err != nil {
		t.Fatalf("PlanFor: %v", err)
	}
	for i := 0; i < 20; i++ {
		p, err := PlanFor(req)
		if err != nil || p != first {
			t.Fatalf("replan %d diverged: %+v (%v) != %+v", i, p, err, first)
		}
	}
	c1, _ := Enumerate(req)
	c2, _ := Enumerate(req)
	if !reflect.DeepEqual(c1, c2) {
		t.Error("Enumerate is not deterministic")
	}
}

// TestPlansValidateClean checks the planner's core contract: every
// emitted plan passes Plan.Validate (which runs the same Params.Validate
// the solver constructors enforce), and meets its budget by prediction.
func TestPlansValidateClean(t *testing.T) {
	req := table1Request()
	for _, budget := range []float64{2e-3, 1e-3, 5e-4, 2e-4, 1e-4} {
		req.ErrBudget = budget
		p, err := PlanFor(req)
		if err != nil {
			t.Fatalf("budget %g: %v", budget, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("budget %g: plan %s invalid: %v", budget, p.String(), err)
		}
		if p.PredErr > budget {
			t.Errorf("budget %g: plan %s predicts %.3e over budget", budget, p.String(), p.PredErr)
		}
		if _, err := p.NewSolver(req.Box); err != nil {
			t.Errorf("budget %g: plan %s not constructible: %v", budget, p.String(), err)
		}
	}
	// Every candidate — not just picks — validates.
	req.ErrBudget = 1e-3
	cands, err := Enumerate(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 50 {
		t.Errorf("only %d candidates at the Table-1 box; expected a dense enumeration", len(cands))
	}
	for _, c := range cands {
		if err := c.Plan.Validate(); err != nil {
			t.Errorf("candidate %s invalid: %v", c.Plan.String(), err)
		}
		if c.PredMs <= 0 {
			t.Errorf("candidate %s has non-positive cost", c.Plan.String())
		}
	}
}

// TestBudgetMonotonicity: loosening the budget never yields a slower
// plan — the feasible set only grows.
func TestBudgetMonotonicity(t *testing.T) {
	req := table1Request()
	prev := math.Inf(1)
	for _, budget := range []float64{5e-5, 8e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 1e-2} {
		req.ErrBudget = budget
		p, err := PlanFor(req)
		if err != nil {
			var inf *InfeasibleError
			if !errors.As(err, &inf) {
				t.Fatalf("budget %g: unexpected error type %T", budget, err)
			}
			continue
		}
		if p.PredMs > prev+1e-9 {
			t.Errorf("budget %g: plan %s costs %.2f ms, slower than tighter budget's %.2f",
				budget, p.String(), p.PredMs, prev)
		}
		prev = p.PredMs
	}
}

// TestRequestErrors checks the typed-error contract over the envelope
// boundaries.
func TestRequestErrors(t *testing.T) {
	base := table1Request()
	cases := []struct {
		name   string
		mutate func(*Request)
	}{
		{"zero box", func(r *Request) { r.Box = vec.Box{} }},
		{"negative edge", func(r *Request) { r.Box.L[1] = -2 }},
		{"nan edge", func(r *Request) { r.Box.L[0] = math.NaN() }},
		{"tiny box", func(r *Request) { r.Box = vec.Cubic(0.2) }},
		{"huge box", func(r *Request) { r.Box = vec.Cubic(500) }},
		{"extreme aspect", func(r *Request) { r.Box = vec.NewBox(1, 1, 50) }},
		{"no atoms", func(r *Request) { r.Atoms = 0 }},
		{"negative atoms", func(r *Request) { r.Atoms = -5 }},
		{"zero budget", func(r *Request) { r.ErrBudget = 0 }},
		{"absurd budget", func(r *Request) { r.ErrBudget = 2 }},
		{"nan budget", func(r *Request) { r.ErrBudget = math.NaN() }},
		{"bad weights", func(r *Request) { w := DefaultWeights(); w.PairNs = math.Inf(1); r.Weights = &w }},
		{"zero drift", func(r *Request) { w := DefaultWeights(); w.DriftPerStep = 0; r.Weights = &w }},
	}
	for _, tc := range cases {
		req := base
		tc.mutate(&req)
		_, err := PlanFor(req)
		var re *RequestError
		if !errors.As(err, &re) {
			t.Errorf("%s: got %v, want *RequestError", tc.name, err)
		} else if re.Error() == "" {
			t.Errorf("%s: empty error text", tc.name)
		}
	}
}

// TestInfeasibleBudget checks that impossible budgets surface the best
// achievable alternative in a typed error.
func TestInfeasibleBudget(t *testing.T) {
	req := table1Request()
	req.ErrBudget = 2e-6
	_, err := PlanFor(req)
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("got %v, want *InfeasibleError", err)
	}
	if !(inf.BestErr > 2e-6) {
		t.Errorf("best achievable %.3e should exceed the infeasible budget", inf.BestErr)
	}
	if inf.Best.Method == "" {
		t.Error("infeasible error does not carry the best plan")
	}
}

// TestSmallBoxFallback: a box too small for the Table-1 cutoffs still
// plans, with a proportional cutoff.
func TestSmallBoxFallback(t *testing.T) {
	req := Request{Box: vec.Cubic(1.6), Atoms: 150, ErrBudget: 2e-3}
	p, err := PlanFor(req)
	if err != nil {
		t.Fatalf("small box: %v", err)
	}
	if p.Rc >= 0.49*1.6 {
		t.Errorf("fallback cutoff %.3f too large for a 1.6 nm box", p.Rc)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("fallback plan invalid: %v", err)
	}
}

// TestStepCostSkinZeroRebuildsEveryStep: one pair-list formula prices
// every skin. At skin 0 the list stores exactly the in-range pairs and is
// rebuilt every step, so the short-range row is the in-range pairs at the
// kernel price and the neighbor row a full rebuild.
func TestStepCostSkinZeroRebuildsEveryStep(t *testing.T) {
	req := table1Request()
	cands, err := Enumerate(req)
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultWeights()
	atoms := float64(req.Atoms)
	rho := atoms / req.Box.Volume()
	seen := 0
	for _, c := range cands {
		if c.Skin != 0 {
			continue
		}
		seen++
		inRc := 0.5 * atoms * rho * (4 * math.Pi / 3) * c.Rc * c.Rc * c.Rc
		b := w.StepCost(req, c.Plan)
		if b[0].Stage != obs.StageShortRange {
			t.Fatalf("%s: first row keyed %s, want the short range", c.Plan.String(), b[0].Stage)
		}
		if got, want := b[0].Ns, inRc*w.PairNs; got != want {
			t.Fatalf("%s: short-range %g ns, want inRc·PairNs = %g", c.Plan.String(), got, want)
		}
		if got, want := b.Within(obs.StageNeighbor), inRc*w.RebuildPairNs+atoms*w.RebuildAtomNs; got != want {
			t.Fatalf("%s: neighbor %g ns, want inRc·RebuildPairNs + atoms·RebuildAtomNs = %g", c.Plan.String(), got, want)
		}
	}
	if seen == 0 {
		t.Fatal("no skin-0 candidate enumerated")
	}
}

// TestStepCostBreakdownShape: the scoring rows are positive, sum to
// PredMs, and fill the short-range and mesh stages the monitor diffs
// against obs stage timings.
func TestStepCostBreakdownShape(t *testing.T) {
	req := table1Request()
	cands, err := Enumerate(req)
	if err != nil {
		t.Fatal(err)
	}
	w := DefaultWeights()
	for _, c := range cands[:10] {
		b := w.StepCost(req, c.Plan)
		if got := b.Within(obs.StageStep) * 1e-6; math.Abs(got-c.PredMs) > 1e-9 {
			t.Errorf("%s: breakdown total %.4f ms != PredMs %.4f", c.Plan.String(), got, c.PredMs)
		}
		if short, mesh := b.Within(obs.StageShortRange), b.Within(obs.StageMesh); short <= 0 || mesh <= 0 {
			t.Errorf("%s: empty stage group (short %.1f, mesh %.1f)", c.Plan.String(), short, mesh)
		}
		for _, s := range b {
			if s.Units <= 0 || s.Ns < 0 {
				t.Errorf("%s: bad stage row %+v", c.Plan.String(), s)
			}
		}
	}
}

// TestPlanValidateThroughRegistry: the method and its parameters are
// checked by the solver registry — an unknown method and a grid the
// method cannot run on come back with the error NewSolver would give.
func TestPlanValidateThroughRegistry(t *testing.T) {
	req := table1Request()
	p, err := PlanFor(req)
	if err != nil {
		t.Fatal(err)
	}
	bad := p
	bad.Method = "pppm"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("unknown method: Validate() = %v", err)
	}
	bad = p
	bad.Grid = [3]int{18, 18, 18}
	_, nerr := bad.NewSolver(req.Box)
	if err := bad.Validate(); err == nil || nerr == nil || err.Error() != nerr.Error() {
		t.Errorf("bad grid: Validate() = %v, NewSolver() = %v, want the same error", err, nerr)
	}
}
