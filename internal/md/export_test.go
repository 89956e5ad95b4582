package md

// StepCount returns the number of completed steps (restored across a
// resume).
func (in *Integrator) StepCount() int { return in.stepCount }
