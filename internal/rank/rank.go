// Package rank runs the MD engine in a rank-decomposed mode: R worker
// goroutines ("ranks"), each owning a contiguous block of cell-list
// z layers for the short-range term and the matching z-plane block of
// every TME level grid (internal/dist) for the long-range term,
// communicate exclusively over typed message channels — position halos,
// owed Newton reaction forces, computed-force returns, packed grid
// sleeves, top-grid gather/scatter — laid out like the MDGRAPE-4A torus
// traffic the paper describes. A full Engine.Step over R ranks is bitwise
// identical to the single-process md.Integrator.Step at any rank count
// and any GOMAXPROCS. No command runs it: it is slower than the serial
// engine, and stays only for the benchmark's rank.* probes until those
// are retired (DESIGN.md §7.9).
//
// # Determinism
//
// A rank runs the stage functions the serial engine runs — the same
// bodies, over the atoms, slabs and planes it owns instead of all of them —
// and every reduction that crosses ranks ships terms, not partial sums, to
// the fold the serial term itself ends in:
//
//   - integration and the force merge are md.System.KickDrift/KickConstrain
//     and md.MergeForces over the rank's md.Owned set;
//   - short-range forces are the serial engine's skin-0 nonbond.VerletList
//     over the rank's slab range (RebuildRange, Compute), rebuilt every
//     step; the reactions its top slab owes the next rank's first slab
//     (AppendOwed) are added there after that rank's own Compute, as the
//     serial list applies them after its evaluation pass;
//   - the mesh pipeline is dist.Mesh.Solve, with the worker as its
//     dist.Exchanger; its z kernels reproduce the serial per-element
//     arithmetic exactly;
//   - energies travel as per-slab partials — the Ewald exclusion correction
//     among them, evaluated in the pair loop — and per-atom mesh terms, and
//     are folded by the engine with nonbond.FoldSlabs and pmesh.FoldEnergy.
//
// Message delivery order cannot perturb any of this: each ordered rank
// pair has one channel carrying a fixed per-step schedule of messages
// (see protocol.go), so every receive is matched to one deterministic
// send regardless of goroutine interleaving.
//
// # Liveness
//
// Channel capacities equal the full per-step schedule, so sends never
// block and a deadlock can only be a missing message. A worker panic
// aborts all ranks and surfaces as one joined step error; an optional
// watchdog (Config.StepTimeout) converts a lost or mis-sized exchange
// into a diagnosable error instead of a hang.
package rank

import "time"

// Config parameterizes the rank engine.
type Config struct {
	// Ranks is the number of worker goroutines R. Each owns ~ns/R cell
	// layers (ns = cell-list z layers) and, in mesh mode, nz/R planes of
	// every level grid; R must satisfy 1 ≤ R ≤ ns and divide every
	// level's plane count.
	Ranks int

	// StepTimeout, when positive, arms a per-step watchdog: a step that
	// does not complete in time aborts all ranks and returns a deadlock
	// diagnosis. Zero (the default) disables the timer, which keeps the
	// step path allocation-free.
	StepTimeout time.Duration
}
