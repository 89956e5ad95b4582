package tune

import (
	"fmt"
	"io"
)

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
