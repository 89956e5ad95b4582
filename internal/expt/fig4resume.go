package expt

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"tme4a/internal/ckpt"
	"tme4a/internal/md"
	"tme4a/internal/spme"
	"tme4a/internal/vec"
	"tme4a/internal/water"
)

// Fig4ResumeConfig parameterizes the crash/resume experiment: an NVE
// trajectory is run straight through, then re-run with periodic
// checkpoints and killed mid-flight, then resumed from the newest
// checkpoint. The resumed trajectory must match the straight one bit for
// bit at every remaining step — the paper's reproducibility requirement
// (bitwise-identical runs on the same machine count) extended across a
// process boundary. A second variant tears the checkpoint written at the
// kill step, so the resume must fall back to the previous checkpoint and
// replay the gap, still bitwise.
type Fig4ResumeConfig struct {
	WaterSide  int
	GridN      int
	Rc         float64
	RTol       float64
	Skin       float64 // Verlet buffer; >0 exercises pair-list resume
	Steps      int     // total trajectory length
	KillAt     int     // the interrupted run dies after this step
	Every      int     // checkpoint cadence (steps)
	Keep       int     // retention for the checkpoint store
	Dt         float64 // ps
	Seed       int64
	EquilSteps int
}

// QuickFig4Resume is the standard configuration: 375 atoms, 1000 steps,
// killed at step 500 with checkpoints every 100.
func QuickFig4Resume() Fig4ResumeConfig {
	return Fig4ResumeConfig{
		WaterSide:  5, // 125 waters, 375 atoms
		GridN:      16,
		Rc:         0.6,
		RTol:       1e-4,
		Skin:       0.1,
		Steps:      1000,
		KillAt:     500,
		Every:      100,
		Keep:       3,
		Dt:         0.001,
		Seed:       7,
		EquilSteps: 100,
	}
}

// TinyFig4Resume is a seconds-scale configuration for -short test runs.
func TinyFig4Resume() Fig4ResumeConfig {
	c := QuickFig4Resume()
	c.WaterSide = 4
	c.Rc = 0.5
	c.Steps = 120
	c.KillAt = 60
	c.Every = 20
	return c
}

// Fig4ResumeResult reports what the harness observed.
type Fig4ResumeResult struct {
	Atoms          int
	ResumedFrom    int64 // checkpoint step the clean resume restarted at
	TornResumeFrom int64 // fallback step after the torn final checkpoint
	FinalHash      uint64
}

// configHash fingerprints every parameter that shapes the trajectory.
func (cfg Fig4ResumeConfig) configHash() uint64 {
	return ckpt.ConfigHash(fmt.Sprintf(
		"fig4resume side=%d grid=%d rc=%g rtol=%g skin=%g steps=%d dt=%g seed=%d equil=%d",
		cfg.WaterSide, cfg.GridN, cfg.Rc, cfg.RTol, cfg.Skin, cfg.Steps, cfg.Dt,
		cfg.Seed, cfg.EquilSteps))
}

// build constructs the initial state; it is a pure function of cfg.
func (cfg Fig4ResumeConfig) build() *md.System {
	nmol := cfg.WaterSide * cfg.WaterSide * cfg.WaterSide
	box := water.CubicBoxFor(nmol)
	sys := water.Build(cfg.WaterSide, cfg.WaterSide, cfg.WaterSide, box, cfg.Seed)
	water.Equilibrate(sys, cfg.EquilSteps, cfg.Dt, 300, math.Min(0.9, cfg.Rc), cfg.Seed+1)
	sys.InitVelocities(300, rand.New(rand.NewSource(cfg.Seed+2)))
	return sys
}

// rebuild reconstructs the topology for a resume: same builder, but the
// box comes from the checkpoint and no equilibration runs — positions
// and velocities are about to be overwritten by the snapshot.
func (cfg Fig4ResumeConfig) rebuild(snap *md.Snapshot) *md.System {
	return water.Build(cfg.WaterSide, cfg.WaterSide, cfg.WaterSide, snap.Box, cfg.Seed)
}

func (cfg Fig4ResumeConfig) integrator(box vec.Box) *md.Integrator {
	alpha := spme.AlphaFromRTol(cfg.Rc, cfg.RTol)
	n := [3]int{cfg.GridN, cfg.GridN, cfg.GridN}
	return &md.Integrator{
		FF: &md.ForceField{
			Alpha: alpha,
			Rc:    cfg.Rc,
			Skin:  cfg.Skin,
			Mesh:  spme.New(spme.Params{Alpha: alpha, Rc: cfg.Rc, Order: 6, N: n}, box),
		},
		Dt: cfg.Dt,
	}
}

// stateHash digests the full dynamic state (positions and velocities,
// raw float64 bits) so per-step comparisons are exact, not tolerance-based.
func stateHash(sys *md.System) uint64 { return md.StateHash(sys) }

// RunFig4Resume executes the experiment using checkpoint stores rooted at
// cleanDir and tornDir (distinct directories on fsys; nil fsys uses the
// real filesystem). It returns an error describing the first divergence,
// if any.
func RunFig4Resume(cfg Fig4ResumeConfig, cleanDir, tornDir string, fsys ckpt.FS, w io.Writer) (Fig4ResumeResult, error) {
	var res Fig4ResumeResult
	hash := cfg.configHash()
	meta := map[string]int64{"side": int64(cfg.WaterSide), "seed": cfg.Seed}

	// Reference: the uninterrupted trajectory, hashed after every step.
	ref := cfg.build()
	res.Atoms = ref.N()
	refInteg := cfg.integrator(ref.Box)
	hashes := make([]uint64, cfg.Steps+1)
	for s := 1; s <= cfg.Steps; s++ {
		refInteg.Step(ref)
		hashes[s] = stateHash(ref)
	}
	res.FinalHash = hashes[cfg.Steps]
	logf(w, "# fig4resume: %d atoms, %d steps, kill at %d, checkpoint every %d\n",
		res.Atoms, cfg.Steps, cfg.KillAt, cfg.Every)

	// runInterrupted integrates to KillAt, checkpointing through st; a
	// save error is treated as the process dying at that step (the torn
	// variant relies on this).
	runInterrupted := func(st *ckpt.Store) error {
		sys := cfg.build()
		integ := cfg.integrator(sys.Box)
		for s := 1; s <= cfg.KillAt; s++ {
			integ.Step(sys)
			if hashes[s] != stateHash(sys) {
				return fmt.Errorf("interrupted run diverged from reference at step %d", s)
			}
			if s%cfg.Every == 0 {
				if err := st.Save(integ.CaptureResume(sys, meta)); err != nil {
					return fmt.Errorf("checkpoint at step %d: %w", s, err)
				}
			}
		}
		return nil
	}

	// resume restores from the newest valid checkpoint in dir and runs to
	// the end, demanding bitwise identity with the reference at each step.
	resume := func(dir string) (int64, error) {
		st, err := ckpt.Open(dir, cfg.Keep, hash, fsys)
		if err != nil {
			return 0, err
		}
		c, err := st.LoadLatest()
		if err != nil {
			return 0, err
		}
		from := c.Step()
		sys := cfg.rebuild(c.Snap)
		integ := cfg.integrator(sys.Box)
		if err := integ.RestoreResume(sys, c.Snap); err != nil {
			return from, err
		}
		if got := stateHash(sys); got != hashes[from] {
			return from, fmt.Errorf("restored state at step %d differs from reference (hash %016x vs %016x)",
				from, got, hashes[from])
		}
		for s := int(from) + 1; s <= cfg.Steps; s++ {
			integ.Step(sys)
			if got := stateHash(sys); got != hashes[s] {
				return from, fmt.Errorf("resumed trajectory diverged at step %d (hash %016x vs %016x)",
					s, got, hashes[s])
			}
		}
		return from, nil
	}

	// Clean kill/resume: the checkpoint at KillAt is intact.
	st, err := ckpt.Open(cleanDir, cfg.Keep, hash, fsys)
	if err != nil {
		return res, err
	}
	if err := runInterrupted(st); err != nil {
		return res, err
	}
	res.ResumedFrom, err = resume(cleanDir)
	if err != nil {
		return res, fmt.Errorf("clean resume: %w", err)
	}
	if res.ResumedFrom != int64(cfg.KillAt) {
		return res, fmt.Errorf("clean resume started at %d, want %d", res.ResumedFrom, cfg.KillAt)
	}
	logf(w, "clean kill at %d: resumed from %d, bitwise identical to straight run\n",
		cfg.KillAt, res.ResumedFrom)

	// Torn variant: the write of the final checkpoint is torn mid-buffer
	// and the "machine" dies. The half-written temp never got renamed, so
	// recovery must ignore it (and would reject its content on CRC if it
	// had), fall back one checkpoint, and replay the gap bitwise.
	inner := fsys
	if inner == nil {
		inner = ckpt.OS()
	}
	ffs := ckpt.NewFaultFS(inner, ckpt.Rule{
		Op:    ckpt.OpWrite,
		Match: ckpt.FileName(int64(cfg.KillAt)),
		Mode:  ckpt.ModeTorn,
	})
	tst, err := ckpt.Open(tornDir, cfg.Keep, hash, ffs)
	if err != nil {
		return res, err
	}
	if err := runInterrupted(tst); err == nil {
		return res, fmt.Errorf("torn write at step %d went unreported", cfg.KillAt)
	}
	res.TornResumeFrom, err = resume(tornDir)
	if err != nil {
		return res, fmt.Errorf("torn-fallback resume: %w", err)
	}
	if want := int64(cfg.KillAt - cfg.Every); res.TornResumeFrom != want {
		return res, fmt.Errorf("torn-fallback resume started at %d, want %d", res.TornResumeFrom, want)
	}
	logf(w, "torn checkpoint at %d: fell back to %d, replayed %d steps, bitwise identical\n",
		cfg.KillAt, res.TornResumeFrom, int64(cfg.Steps)-res.TornResumeFrom)
	return res, nil
}
