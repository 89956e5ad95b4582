package tune

import (
	"errors"
	"testing"

	"tme4a/internal/vec"
)

// FuzzPlanRequest fuzzes the planner over arbitrary box shapes, atom
// counts and budgets. The contract under fuzzing: PlanFor never panics,
// and either returns a plan that passes Plan.Validate (predicting within
// budget) or one of the two typed errors — *RequestError for inputs
// outside the supported envelope, *InfeasibleError when no candidate
// meets the budget.
func FuzzPlanRequest(f *testing.F) {
	f.Add(3.493, 3.493, 3.493, 12288, 1e-3) // Table-1 box
	f.Add(1.6, 1.6, 1.6, 150, 2e-3)         // small-box fallback
	f.Add(6.99, 6.99, 6.99, 98304, 1e-4)    // full-scale, tight budget
	f.Add(2.0, 3.0, 4.0, 2000, 5e-4)        // anisotropic
	f.Add(0.0, 0.0, 0.0, 0, 0.0)            // degenerate zeros
	f.Add(-1.0, 2.0, 2.0, 100, 1e-3)        // negative edge
	f.Add(500.0, 0.1, 3.0, 1, 2.0)          // everything out of range
	f.Add(3.5, 3.5, 3.5, 12288, 1e-9)       // infeasible budget
	f.Fuzz(func(t *testing.T, lx, ly, lz float64, atoms int, budget float64) {
		req := Request{Box: vec.NewBox(lx, ly, lz), Atoms: atoms, ErrBudget: budget}
		p, err := PlanFor(req)
		if err != nil {
			var re *RequestError
			var inf *InfeasibleError
			if !errors.As(err, &re) && !errors.As(err, &inf) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if err.Error() == "" {
				t.Fatal("typed error with empty message")
			}
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("plan %s fails Validate: %v", p.String(), verr)
		}
		if p.PredErr > budget {
			t.Fatalf("plan %s predicts %.3e over budget %.3e", p.String(), p.PredErr, budget)
		}
		if p.PredMs <= 0 || !isFinite(p.PredMs) {
			t.Fatalf("plan %s has bad predicted cost %g", p.String(), p.PredMs)
		}
	})
}
