package perfmodel

import (
	"math"
	"testing"
)

// TestCostTableMatchesSecIIIC checks the paper's Sec. III.C conclusion:
// at the MDGRAPE-4A operating points (g_c = 8, M = 4, N_x/P_x ∈ {4, 8})
// both the computational and the communication costs of TME are lower
// than B-spline MSM's.
func TestCostTableMatchesSecIIIC(t *testing.T) {
	rows := CostTable(8, 4)
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.CompRatio <= 1 {
			t.Errorf("γ=%.1f: TME compute not cheaper (ratio %.2f)", r.Gamma, r.CompRatio)
		}
		if r.CommRatio <= 1 {
			t.Errorf("γ=%.1f: TME communication not cheaper (ratio %.2f)", r.Gamma, r.CommRatio)
		}
	}
	// Exact formula spot checks: (2·8+1)³ = 4913 taps vs 3·17·4 = 204.
	if got := CompCostMSM(8, 4); got != 4913*64 {
		t.Errorf("CompCostMSM = %g", got)
	}
	if got := CompCostTME(8, 4, 4); got != 3*17*64*4 {
		t.Errorf("CompCostTME = %g", got)
	}
	// Communication formulas at γ = 0.5: (8+6+1.5)·512 and (2+16)·0.25·512.
	if got := CommCostMSM(8, 0.5); got != 15.5*512 {
		t.Errorf("CommCostMSM = %g", got)
	}
	if got := CommCostTME(8, 4, 0.5); got != 18*0.25*512 {
		t.Errorf("CommCostTME = %g", got)
	}
	// Pin every cell of the Sec. III.C table so a scoring refactor that
	// perturbs the cost model shows up as an explicit diff here.
	want := []CostRow{
		{Gamma: 0.5, NxPx: 4, CompMSM: 314432, CompTME: 13056,
			CommMSM: 7936, CommTME: 2304, CompRatio: 314432.0 / 13056, CommRatio: 7936.0 / 2304},
		{Gamma: 1, NxPx: 8, CompMSM: 2515456, CompTME: 104448,
			CommMSM: 13312, CommTME: 9216, CompRatio: 2515456.0 / 104448, CommRatio: 13312.0 / 9216},
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("CostTable row %d = %+v, want %+v", i, r, want[i])
		}
	}
}

// TestScalingTotalsPinned pins the bits of the three strong-scaling
// totals, which results/costmodel.csv prints, at five processor counts.
func TestScalingTotalsPinned(t *testing.T) {
	s := DefaultScaling()
	for _, c := range []struct {
		p             int
		pme, msm, tme uint64
	}{
		{1, 0x4178800000000000, 0x41d332ee18000000, 0x418a106b80000000},
		{8, 0x4148869000000000, 0x41a335f0c0000000, 0x415aa35c00000000},
		{64, 0x411a588000000000, 0x4173408600000000, 0x412bdae000000000},
		{512, 0x4112088000000000, 0x4143713000000000, 0x40fed70000000000},
		{4096, 0x413e16a000000000, 0x41148a8000000000, 0x40d49c0000000000},
	} {
		got := [3]uint64{math.Float64bits(s.PMETime(c.p)), math.Float64bits(s.MSMTime(c.p)), math.Float64bits(s.TMETime(c.p))}
		if want := [3]uint64{c.pme, c.msm, c.tme}; got != want {
			t.Errorf("p=%d: PME/MSM/TME bits %#x, want %#x", c.p, got, want)
		}
	}
}

// TestScalingCrossover reproduces the cited strong-scaling behaviour:
// PME wins at small core counts, the multilevel methods win at large
// counts, with the crossover in the hundreds of cores.
func TestScalingCrossover(t *testing.T) {
	s := DefaultScaling()
	// Small p: PME faster (its compute parallelizes; halo terms dominate
	// the multilevel methods' fixed overheads).
	if !(s.PMETime(8) < s.MSMTime(8)) {
		t.Errorf("at p=8 PME (%.0f) should beat MSM (%.0f)", s.PMETime(8), s.MSMTime(8))
	}
	// Large p: both multilevel methods beat PME.
	if !(s.MSMTime(4096) < s.PMETime(4096)) {
		t.Errorf("at p=4096 MSM (%.0f) should beat PME (%.0f)", s.MSMTime(4096), s.PMETime(4096))
	}
	if !(s.TMETime(4096) < s.PMETime(4096)) {
		t.Errorf("at p=4096 TME (%.0f) should beat PME (%.0f)", s.TMETime(4096), s.PMETime(4096))
	}
	// Crossover between 64 and 2048 cores (Hardy et al. report ~512).
	var crossover int
	for p := 8; p <= 8192; p *= 2 {
		if s.MSMTime(p) < s.PMETime(p) {
			crossover = p
			break
		}
	}
	if crossover == 0 || crossover < 64 || crossover > 2048 {
		t.Errorf("MSM/PME crossover at p=%d, expected within [64, 2048]", crossover)
	}
	// TME is never slower than MSM at the operating parameters.
	for p := 8; p <= 8192; p *= 2 {
		if s.TMETime(p) > s.MSMTime(p) {
			t.Errorf("p=%d: TME (%.0f) slower than MSM (%.0f)", p, s.TMETime(p), s.MSMTime(p))
		}
	}
}

func TestLiteratureRows(t *testing.T) {
	rows := LiteratureRows()
	if len(rows) != 4 {
		t.Fatalf("expected 4 literature rows, got %d", len(rows))
	}
	// Ordering of machines by throughput must match Table 2.
	for i := 1; i < len(rows); i++ {
		if rows[i].PerfUsPerDay <= rows[i-1].PerfUsPerDay {
			t.Errorf("rows not in increasing throughput order: %v", rows)
		}
	}
	for _, r := range rows {
		if !r.FromLiterature {
			t.Errorf("row %q should be marked literature", r.System)
		}
	}
}
