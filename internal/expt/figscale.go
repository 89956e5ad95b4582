package expt

import (
	"fmt"
	"io"

	"tme4a/internal/hw/torus"
	"tme4a/internal/md"
	"tme4a/internal/obs"
	"tme4a/internal/rank"
	"tme4a/internal/tune"
)

// FigScaleConfig parameterizes the rank strong-scaling sweep (the live
// counterpart of the paper's Fig 10 node-scaling discussion): the same
// NVE water trajectory is stepped by the rank engine at increasing rank
// counts, measuring the per-stage step breakdown, the protocol traffic,
// and the torus-modeled communication time — while asserting the
// trajectory itself stays bitwise identical at every rank count.
type FigScaleConfig struct {
	WaterSide  int     // waters per box edge
	GridN      int     // finest TME grid (GridN³); one middle level
	M          int     // Gaussians per shell
	Gc         int     // grid-kernel cutoff
	Rc         float64 // short-range cutoff (nm)
	Seed       int64
	EquilSteps int   // thermostatted pre-equilibration steps
	Warmup     int   // instrumented-but-discarded steps per rank count
	Steps      int   // measured steps per rank count
	Ranks      []int // rank counts to sweep
}

// QuickFigScale is the single-host sweep: a 216-water box whose 8 cell
// layers and 32 mesh planes divide evenly across 1/2/4/8 ranks.
func QuickFigScale() FigScaleConfig {
	return FigScaleConfig{
		WaterSide:  6, // 216 waters, 648 atoms
		GridN:      32,
		M:          2,
		Gc:         4,
		Rc:         0.23,
		Seed:       23,
		EquilSteps: 100,
		Warmup:     5,
		Steps:      40,
		Ranks:      []int{1, 2, 4, 8},
	}
}

// FullFigScale scales the sweep up (512 waters, longer measurement).
func FullFigScale() FigScaleConfig {
	c := QuickFigScale()
	c.WaterSide = 8
	c.Rc = 0.3
	c.Steps = 200
	return c
}

// FigScalePoint is one row of the sweep. Hash and traffic are
// deterministic; the stage timings are measured wall time on rank 0.
type FigScalePoint struct {
	Ranks        int
	Atoms        int
	StateHash    string
	CommPerStep  int64
	TorusNs      int64
	StepNs       int64
	ShortNs      int64
	NeighborNs   int64
	MeshNs       int64
	IntegrateNs  int64
	ConstraintNs int64
	MergeNs      int64
}

// RunFigScale runs the sweep: one fresh engine per rank count, warm-up,
// then cfg.Steps measured steps. Every rank count must land on the same
// md.StateHash — a divergence is returned as an error, not a data point.
// The torus-comm column routes each step's traffic matrix over the
// MDGRAPE-4A 3D torus (ranks laid out along one torus axis, as the slab
// decomposition prescribes) and reports the modeled drain time.
func RunFigScale(cfg FigScaleConfig, w io.Writer) ([]FigScalePoint, error) {
	if w == nil {
		w = io.Discard
	}
	fmt.Fprintf(w, "# fig10scale: %d waters, grid %d^3 L=1 M=%d gc=%d rc=%g, %d measured steps per rank count\n",
		cfg.WaterSide*cfg.WaterSide*cfg.WaterSide, cfg.GridN, cfg.M, cfg.Gc, cfg.Rc, cfg.Steps)
	fmt.Fprintf(w, "ranks,atoms,state_hash,comm_bytes_per_step,torus_comm_ns,step_us,short_us,neighbor_us,mesh_us,integrate_us,constraint_us,merge_us\n")

	points := make([]FigScalePoint, 0, len(cfg.Ranks))
	var refHash uint64
	for _, r := range cfg.Ranks {
		pt, hash, err := runFigScalePoint(cfg, r)
		if err != nil {
			return points, fmt.Errorf("ranks=%d: %w", r, err)
		}
		if len(points) == 0 {
			refHash = hash
		} else if hash != refHash {
			return points, fmt.Errorf("ranks=%d: state hash %016x differs from ranks=%d's %016x — rank decomposition leaked into the trajectory",
				r, hash, cfg.Ranks[0], refHash)
		}
		points = append(points, pt)
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f\n",
			pt.Ranks, pt.Atoms, pt.StateHash, pt.CommPerStep, pt.TorusNs,
			float64(pt.StepNs)/1e3, float64(pt.ShortNs)/1e3, float64(pt.NeighborNs)/1e3,
			float64(pt.MeshNs)/1e3, float64(pt.IntegrateNs)/1e3,
			float64(pt.ConstraintNs)/1e3, float64(pt.MergeNs)/1e3)
	}
	fmt.Fprintf(w, "# state hash identical across all %d rank counts\n", len(points))
	return points, nil
}

// runFigScalePoint measures one rank count and returns the point plus
// the final state hash.
func runFigScalePoint(cfg FigScaleConfig, r int) (FigScalePoint, uint64, error) {
	// The seed chain makes every call start from a bitwise-identical box.
	sys := thermalBox(cfg.WaterSide, cfg.Seed, cfg.EquilSteps, cfg.Rc)
	ff, err := tune.Plan{
		Method: "tme", Rc: cfg.Rc, Grid: [3]int{cfg.GridN, cfg.GridN, cfg.GridN},
		Gc: cfg.Gc, M: cfg.M, Levels: 1, Order: 4,
	}.NewForceField(sys.Box)
	if err != nil {
		return FigScalePoint{}, 0, err
	}
	eng, err := rank.New(rank.Config{Ranks: r}, sys, ff, dt)
	if err != nil {
		return FigScalePoint{}, 0, err
	}
	defer eng.Close()
	rec := obs.New()
	eng.SetObs(rec)
	for s := 0; s < cfg.Warmup; s++ {
		if _, err := eng.Step(); err != nil {
			return FigScalePoint{}, 0, err
		}
	}
	rec.Reset()
	bytes0 := eng.CommBytes()
	m0 := eng.CommMatrix()
	for s := 0; s < cfg.Steps; s++ {
		if _, err := eng.Step(); err != nil {
			return FigScalePoint{}, 0, err
		}
	}
	hash := md.StateHash(sys)
	steps := int64(cfg.Steps)
	per := func(s obs.Stage) int64 { return rec.StageNs(s) / steps }
	pt := FigScalePoint{
		Ranks:        r,
		Atoms:        sys.N(),
		StateHash:    fmt.Sprintf("%016x", hash),
		CommPerStep:  (eng.CommBytes() - bytes0) / steps,
		TorusNs:      torusCommNs(eng.CommMatrix(), m0, steps),
		StepNs:       per(obs.StageStep),
		ShortNs:      per(obs.StageShortRange),
		NeighborNs:   per(obs.StageNeighbor),
		MeshNs:       per(obs.StageMesh),
		IntegrateNs:  per(obs.StageIntegrate),
		ConstraintNs: per(obs.StageConstraint),
		MergeNs:      per(obs.StageMerge),
	}
	return pt, hash, nil
}

// torusCommNs routes one step's average traffic matrix over the
// MDGRAPE-4A torus, rank a at torus coordinate (0, 0, a), and returns
// the modeled time (ns) until the last packet drains. Pairs are replayed
// in the engine's deterministic (src, dst) order, all injected at t=0,
// so contention on shared links is accounted for.
func torusCommNs(m1, m0 [][]int64, steps int64) int64 {
	net := torus.NewNetwork(torus.MDGRAPE4A())
	var last float64
	for a := range m1 {
		for b := range m1[a] {
			bytes := float64(m1[a][b]-m0[a][b]) / float64(steps)
			if bytes == 0 {
				continue
			}
			at := net.Send(torus.Coord{Z: a}, torus.Coord{Z: b}, bytes, 0)
			if at > last {
				last = at
			}
		}
	}
	return int64(last)
}
