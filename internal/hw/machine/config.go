// Package machine assembles the full MDGRAPE-4A model: 512 SoCs on an
// 8×8×8 torus with LRU, GCU, nonbond pipelines, GP cores and the TMENW
// octree, providing
//
//   - a timing simulation of one MD step that reproduces the paper's
//     Fig. 9/Fig. 10 time charts, the 196/206 µs step times, the ~50 µs
//     long-range phase breakdown, Table 2's MDGRAPE-4A row, and the
//     Sec. VI.A 64³ projection; and
//
//   - a functional long-range pipeline that computes real forces through
//     the hardware's fixed-point datapaths (LRU → GCU → FPGA FFT → GCU →
//     LRU), validated against the double-precision TME solver.
package machine

import (
	"tme4a/internal/hw/fpgafft"
	"tme4a/internal/hw/octree"
)

// Torus describes the MDGRAPE-4A 3D-torus interconnect (paper Sec. II)
// as the timing model reads it: nodes per axis, hop latency, link
// bandwidth.
type Torus struct {
	Size       [3]int  // nodes per axis (8×8×8 for MDGRAPE-4A)
	HopLatency float64 // ns per hop (200 ns measured)
	Bandwidth  float64 // bytes/ns (7.2 GB/s = 7.2 bytes/ns)
}

// NNodes returns the total node count.
func (t Torus) NNodes() int { return t.Size[0] * t.Size[1] * t.Size[2] }

// NodeID flattens a node coordinate, x fastest.
func (t Torus) NodeID(c [3]int) int { return c[0] + t.Size[0]*(c[1]+t.Size[1]*c[2]) }

// Config describes the machine. All hardware constants are from the paper;
// Calibration holds the software-overhead parameters (see calibration.go).
type Config struct {
	Torus    Torus
	Octree   octree.Config
	ClockGHz float64 // SoC clock (0.6 GHz)
	PPGHz    float64 // nonbond pipeline clock (0.8 GHz)
	NPipes   int     // nonbond pipelines per SoC (64)
	Cal      Calibration

	// What-if knobs for the Sec. VI.B design-space discussion; the
	// defaults model the built machine.
	TopSolveNs     float64 // root-FPGA 16³ solve latency (2112 ns built)
	GCUPointsCycle int     // GCU sustained grid points per cycle (12 built)
}

// Calibration holds the software/orchestration constants that the paper
// itself identifies as the measured bottlenecks (GP core efficiency, CGP
// phase management). They are fixed once against the published
// 80,540-atom measurements — 196 µs step without long-range, 206 µs with,
// ~50 µs long-range total with the Fig. 10 phase breakdown — and all other
// model outputs follow without retuning.
type Calibration struct {
	// GP-core software costs (the paper's stated bottleneck).
	GPIntegrateNsPerAtom   float64 // position/velocity update per atom
	GPKickNsPerAtom        float64 // second half-kick per atom
	GPConstraintNsPerWater float64 // SETTLE per water molecule
	GPBondedNsPerTerm      float64 // bonded term evaluation

	// CGP orchestration gap between long-range phases.
	CGPPhaseOverheadNs float64

	// GCU synchronization slack per restriction/prolongation phase at the
	// 32³ operating point (scales with local grid volume).
	GCUSyncSlackNs float64

	// GCU convolution-phase slack at the 32³ operating point: waiting for
	// neighbour blocks, dominated by load imbalance (paper Sec. V.B).
	GCUConvSlackNs float64

	// Grid charge/potential transfer cost between LRU grid memory and the
	// network, per local grid point (drives the paper's +10 µs CA/BI
	// estimate at 64³).
	GridXferNsPerPoint float64

	// TMENW per-stage protocol/software overhead (see octree package).
	OctreeStageOverheadNs float64

	// Nonbond pair-list inefficiency (cell-pair enumeration evaluates more
	// candidates than accepted pairs).
	PairListFactor float64

	// Halo (import region) traffic per imported atom, bytes (coordinates
	// out, forces back).
	HaloBytesPerAtom float64
}

// DefaultCalibration returns the constants fixed against the paper's
// measurements (see EXPERIMENTS.md for the fit).
func DefaultCalibration() Calibration {
	return Calibration{
		GPIntegrateNsPerAtom:   83,
		GPKickNsPerAtom:        60,
		GPConstraintNsPerWater: 257,
		GPBondedNsPerTerm:      151,
		CGPPhaseOverheadNs:     2500,
		GCUSyncSlackNs:         1300,
		GCUConvSlackNs:         2500,
		GridXferNsPerPoint:     25,
		OctreeStageOverheadNs:  1200,
		PairListFactor:         2.5,
		HaloBytesPerAtom:       16,
	}
}

// MDGRAPE4A returns the production machine configuration.
func MDGRAPE4A() Config {
	cal := DefaultCalibration()
	return Config{
		Torus:          Torus{Size: [3]int{8, 8, 8}, HopLatency: 200, Bandwidth: 7.2},
		Octree:         octree.MDGRAPE4A(cal.OctreeStageOverheadNs),
		ClockGHz:       0.6,
		PPGHz:          0.8,
		NPipes:         64,
		Cal:            cal,
		TopSolveNs:     fpgafft.SolveTimeNs(),
		GCUPointsCycle: 12,
	}
}
