package tune

import (
	"fmt"
	"io"

	"tme4a/internal/solver"
)

// Validate checks the plan without allocating a solver: the plan-level
// fields first, then solver.Validate's check of the method and its
// parameters — what solver.New would reject. A plan returned
// by PlanFor always passes (FuzzPlanRequest leans on this).
func (p Plan) Validate() error {
	if !isFinite(p.Rc) || p.Rc <= 0 {
		return fmt.Errorf("tune: plan Rc %g, want positive", p.Rc)
	}
	if !isFinite(p.Skin) || p.Skin < 0 || p.Skin > maxSkin {
		return fmt.Errorf("tune: plan Skin %g outside [0, %g]", p.Skin, float64(maxSkin))
	}
	if !isFinite(p.PredErr) || p.PredErr <= 0 {
		return fmt.Errorf("tune: plan PredErr %g, want positive", p.PredErr)
	}
	if !isFinite(p.PredMs) || p.PredMs <= 0 {
		return fmt.Errorf("tune: plan PredMs %g, want positive", p.PredMs)
	}
	return solver.Validate(p.Method, p.SolverConfig())
}

// Plan returns the plan the monitor currently considers live.
func (m *Monitor) Plan() Plan { return m.plan }

// Weights returns the monitor's current (possibly recalibrated) weights.
func (m *Monitor) Weights() Weights { return m.weights }

// DecisionTable renders the tuner's pick for each error budget of a
// sweep as CSV rows. Output is a pure function of the request and the
// budget list — plans, predictions and formatting are all deterministic
// — so the repository pins the Table-1 sweep byte-for-byte
// (results/autotune_plans.csv, TestGoldenDecisionTable).
func DecisionTable(req Request, budgets []float64, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "err_budget,method,kernel,rc,grid,gc,M,skin,pred_err,pred_ms"); err != nil {
		return err
	}
	for _, budget := range budgets {
		r := req
		r.ErrBudget = budget
		plan, err := PlanFor(r)
		if err != nil {
			// An infeasible budget is a legitimate table row, not a failure.
			if _, ok := err.(*InfeasibleError); ok {
				if _, werr := fmt.Fprintf(w, "%.3g,none,,,,,,,,\n", budget); werr != nil {
					return werr
				}
				continue
			}
			return err
		}
		if _, err := fmt.Fprintf(w, "%.3g,%s,%s,%.3g,%d,%d,%d,%.3g,%.3e,%.3f\n",
			budget, plan.Method, plan.Kernel, plan.Rc, plan.Grid[0], plan.Gc, plan.M,
			plan.Skin, plan.PredErr, plan.PredMs); err != nil {
			return err
		}
	}
	return nil
}
