// Package perfmodel implements the paper's analytic cost models:
//
//   - the Sec. III.C computation and communication cost estimates for the
//     level-1 grid kernel convolution of B-spline MSM versus TME;
//
//   - a latency/bandwidth strong-scaling model for PME (axis all-to-all
//     FFT transposes) versus range-limited multilevel methods, reproducing
//     the crossover behaviour the paper cites (Hardy et al. Fig. 10: MSM
//     overtakes PME near 512 cores for a ~92k-atom system);
//
//   - the literature rows of Table 2 (CPU/GPU clusters, Anton 1/2), whose
//     values the paper itself takes from prior publications [28, 35]; the
//     MDGRAPE-4A row is produced by the machine simulator.
package perfmodel

import "math"

// CompCostMSM returns the per-node computational cost (MACs) of the
// B-spline MSM level-1 convolution: (2g_c+1)³ taps per output point over
// (N_x/P_x)³ local points (paper Sec. III.C).
func CompCostMSM(gc, nxpx int) float64 {
	t := float64(2*gc + 1)
	n := float64(nxpx)
	return t * t * t * n * n * n
}

// CompCostTME returns the per-node computational cost (MACs) of the TME
// separable convolution: (2g_c+1) taps per axis pass, three passes, M
// Gaussian terms (paper Sec. III.C quotes the per-axis form
// (2g_c+1)(N_x/P_x)³M; the full separable sweep is 3× that).
func CompCostTME(gc, nxpx, m int) float64 {
	t := float64(2*gc + 1)
	n := float64(nxpx)
	return 3 * t * n * n * n * float64(m)
}

// CommCostMSM returns the communication volume estimate (grid points) of
// the MSM level-1 convolution: (8+12γ+6γ²)·g_c³ with γ = (N_x/P_x)/g_c —
// the halo of the direct 3D convolution (paper Sec. III.C).
func CommCostMSM(gc int, gamma float64) float64 {
	g := float64(gc)
	return (8 + 12*gamma + 6*gamma*gamma) * g * g * g
}

// CommCostTME returns the communication volume estimate (grid points) of
// the TME separable convolution: (2+4M)·γ²·g_c³ (paper Sec. III.C).
func CommCostTME(gc, m int, gamma float64) float64 {
	g := float64(gc)
	return (2 + 4*float64(m)) * gamma * gamma * g * g * g
}

// CostRow is one line of the Sec. III.C comparison.
type CostRow struct {
	Gamma                float64
	NxPx                 int
	CompMSM, CompTME     float64
	CommMSM, CommTME     float64
	CompRatio, CommRatio float64 // MSM / TME
}

// CostTable evaluates the Sec. III.C comparison at the MDGRAPE-4A
// operating points: g_c = 8, M = 4, N_x/P_x ∈ {4, 8} (γ ∈ {0.5, 1}).
func CostTable(gc, m int) []CostRow {
	var rows []CostRow
	for _, nxpx := range []int{4, 8} {
		gamma := float64(nxpx) / float64(gc)
		r := CostRow{
			Gamma:   gamma,
			NxPx:    nxpx,
			CompMSM: CompCostMSM(gc, nxpx),
			CompTME: CompCostTME(gc, nxpx, m),
			CommMSM: CommCostMSM(gc, gamma),
			CommTME: CommCostTME(gc, m, gamma),
		}
		r.CompRatio = r.CompMSM / r.CompTME
		r.CommRatio = r.CommMSM / r.CommTME
		rows = append(rows, r)
	}
	return rows
}

// ScalingParams configures the strong-scaling model. Times are arbitrary
// units; defaults are tuned so the PME/MSM crossover lands near 512 cores
// for a 92k-atom (64³ grid) system, matching Hardy et al. Fig. 10 as cited
// by the paper.
type ScalingParams struct {
	GridN     int     // global grid points per axis
	FlopTime  float64 // time per grid MAC / FFT butterfly
	Latency   float64 // per-message latency
	Bandwidth float64 // time per grid point moved
	Gc        int
	M         int
}

// DefaultScaling returns parameters for the ApoA1-like comparison.
func DefaultScaling() ScalingParams {
	return ScalingParams{
		GridN:     64,
		FlopTime:  1,
		Latency:   3000,
		Bandwidth: 2,
		Gc:        8,
		M:         4,
	}
}

// PMETime models the long-range cost of SPME on p processors: local FFT
// work plus two all-to-all transpose phases whose message count grows
// with p (the strong-scaling killer the paper targets).
func (s ScalingParams) PMETime(p int) float64 {
	n3 := float64(s.GridN * s.GridN * s.GridN)
	log2n := 0.0
	for n := s.GridN; n > 1; n >>= 1 {
		log2n++
	}
	fft := 5 * 3 * n3 * log2n / float64(p) * s.FlopTime
	// Two transposes: each rank sends p−1 messages of n³/p² points.
	transpose := 2 * (s.Latency*float64(p-1)*0.08 + s.Bandwidth*2*n3/float64(p))
	return fft + transpose
}

// MSMTime models B-spline MSM on p processors: direct 3D convolution over
// the local grid plus a fixed 26-neighbour halo exchange.
func (s ScalingParams) MSMTime(p int) float64 {
	n3 := float64(s.GridN * s.GridN * s.GridN)
	taps := float64(2*s.Gc + 1)
	conv := taps * taps * taps * (n3 / float64(p)) * s.FlopTime
	gamma := float64(s.GridN) / math.Cbrt(float64(p)) / float64(s.Gc)
	halo := s.Latency*26*0.08 + s.Bandwidth*CommCostMSM(s.Gc, gamma)
	return conv + halo
}

// TMETime models the TME on p processors: separable convolutions plus the
// axis-wise neighbour exchange and a small constant top-level roundtrip
// (octree + 16³ FFT).
func (s ScalingParams) TMETime(p int) float64 {
	n3 := float64(s.GridN * s.GridN * s.GridN)
	conv := 3 * float64(2*s.Gc+1) * float64(s.M) * (n3 / float64(p)) * s.FlopTime
	gamma := float64(s.GridN) / math.Cbrt(float64(p)) / float64(s.Gc)
	halo := s.Latency*6*0.08 + s.Bandwidth*CommCostTME(s.Gc, s.M, gamma)
	return conv + halo + 2000
}

// Table2Row is one line of the paper's Table 2.
type Table2Row struct {
	System         string
	Method         string
	PerfUsPerDay   float64
	StepUs         float64
	LongRangeUs    float64
	FromLiterature bool
}

// LiteratureRows returns the published rows of Table 2 (values from
// [28, 35] as quoted by the paper); the MDGRAPE-4A row is measured from
// the machine simulator and appended by the benchmark harness.
func LiteratureRows() []Table2Row {
	return []Table2Row{
		{System: "CPU cluster (64 nodes)", Method: "SPME", PerfUsPerDay: 0.25, StepUs: 800, LongRangeUs: 500, FromLiterature: true},
		{System: "GPU cluster (64 GPUs)", Method: "SPME", PerfUsPerDay: 0.3, StepUs: 700, LongRangeUs: 500, FromLiterature: true},
		{System: "Anton 1 (512 nodes)", Method: "k-GSE", PerfUsPerDay: 10, StepUs: 20, LongRangeUs: 20, FromLiterature: true},
		{System: "Anton 2 (512 nodes)", Method: "u-series", PerfUsPerDay: 70, StepUs: 3, LongRangeUs: 3, FromLiterature: true},
	}
}
