package tune

import (
	"math"

	"tme4a/internal/spme"
	"tme4a/internal/water"
)

// The accuracy surface: relative force errors measured against the Ewald
// reference on the Table-1 system (4096 TIP3P waters, 16³ grid,
// h = 0.3106 nm, ewald-rtol 1e-4) across rc ∈ {1.0, 1.25, 1.5} nm,
// g_c ∈ {4, 8, 12} and M ∈ {1..4}. Values are results/table1.csv verbatim
// (TestSurfaceMatchesTable1 cross-checks); the estimator interpolates this
// surface in two dimensionless keys:
//
//	x = α·h        mesh resolution relative to the Ewald splitting
//	w = g_c·α·h    grid-kernel window coverage in splitting widths
//
// Both keys are invariant under rescaling the box and the cutoff
// together (α·rc is pinned by RTol), which is what lets a surface
// measured at one system size speak for other boxes and grids.

// surfaceRc lists the measured cutoffs, ascending.
func surfaceRc() [3]float64 { return [3]float64{1.0, 1.25, 1.5} }

// surfaceGcs lists the measured grid-kernel cutoffs, ascending.
func surfaceGcs() [3]int { return [3]int{4, 8, 12} }

// surfaceSPME lists SPME's error per cutoff (same order as surfaceRc).
func surfaceSPME() [3]float64 { return [3]float64{7.157e-04, 1.482e-04, 6.016e-05} }

// surfaceTME lists TME/gauss errors indexed [rc][gc][M-1]
// (orders matching surfaceRc, surfaceGcs, M = 1..4).
func surfaceTME() [3][3][4]float64 {
	return [3][3][4]float64{
		{ // rc = 1.00
			{1.794e-03, 7.743e-04, 7.631e-04, 7.612e-04},
			{1.784e-03, 7.497e-04, 7.388e-04, 7.373e-04},
			{1.785e-03, 7.496e-04, 7.388e-04, 7.373e-04},
		},
		{ // rc = 1.25
			{1.469e-03, 2.309e-04, 1.957e-04, 1.966e-04},
			{1.469e-03, 1.991e-04, 1.642e-04, 1.634e-04},
			{1.469e-03, 1.992e-04, 1.643e-04, 1.635e-04},
		},
		{ // rc = 1.50
			{1.267e-03, 2.742e-04, 2.609e-04, 2.610e-04},
			{1.267e-03, 1.157e-04, 6.303e-05, 6.265e-05},
			{1.267e-03, 1.157e-04, 6.302e-05, 6.267e-05},
		},
	}
}

// useriesRatio lists the u-series/gauss error ratio per M, from the
// kernel shootout at the Table-1 operating point (its nine rows are kept
// in EXPERIMENTS.md, "Kernel-family shootout"): there the u-series
// quadrature tracks the Gaussian one to within a couple of percent at
// every M, so its error is modeled as gauss × ratio. The measured
// frontier (results/frontier.csv) pairs the families at equal (rc, grid,
// g_c, M) on three boxes: the ratio stays within 0.995–1.053 at M ≥ 3
// but spans 0.66–1.39 at M ≤ 2.
func useriesRatio() [4]float64 {
	return [4]float64{
		1.802e-03 / 1.784e-03,
		7.562e-04 / 7.497e-04,
		7.378e-04 / 7.388e-04,
		7.374e-04 / 7.373e-04,
	}
}

// clampLowSafety inflates estimates whose x = α·h lies below the
// surface's finest measured point. The clamp itself already refuses to
// promise better errors than the surface demonstrated; the extra factor
// covers the component of the measured error that does NOT shrink with
// the mesh (the M-truncation and real-space floors), which the x-clamp
// alone underestimated by up to ~45% on the 1,536-atom box at grids
// ≤ 16 (TestAutotuneOracle holds that slice conservative). Far below the
// surface the factor does not cover the gap: at grid 32 on that box
// (x = 0.21) the measured frontier (results/frontier.csv) finds up to
// 25× the estimate (ROADMAP item 11).
const clampLowSafety = 1.5

// msmSafety inflates the TME gauss M=4 estimate for B-spline MSM: the
// direct (2g_c+1)³ convolution evaluates the same softened kernel the
// separable sweep approximates, so its error tracks the M→∞ TME limit;
// the factor absorbs the residual mismatch on the safe side.
const msmSafety = 1.3

// surfaceH is the Table-1 mesh spacing: the 4096-water cubic box over a
// 16³ grid — recomputed from the same helpers the experiments use so the
// estimator's x keys and a rerun of the experiment can never disagree.
func surfaceH() float64 { return water.CubicBoxFor(4096).L[0] / 16 }

// alphaFor returns the Ewald splitting for a cutoff under the package's
// fixed RTol convention.
func alphaFor(rc float64) float64 { return spme.AlphaFromRTol(rc, RTol) }

// surfaceXs returns the measured x = α·h keys, descending in rc order
// (larger rc ⇒ smaller α ⇒ smaller x), i.e. ascending in x when read
// back-to-front. Index order matches surfaceRc.
func surfaceXs() [3]float64 {
	h := surfaceH()
	rcs := surfaceRc()
	var xs [3]float64
	for i := range rcs {
		xs[i] = alphaFor(rcs[i]) * h
	}
	return xs
}

// surfaceXMax returns the largest x the surface covers.
func surfaceXMax() float64 {
	xs := surfaceXs()
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

// logInterp linearly interpolates ln(err) over ln(key) across the sample
// points (keys ascending). Below the range it clamps to the first value
// — the surface's most accurate point is the best the model will ever
// promise, so finer-than-measured settings are never credited with
// errors the surface has not demonstrated. Above the range it
// extrapolates on the last segment's slope (the enumerator caps how far).
func logInterp(key float64, keys, vals []float64) float64 {
	n := len(keys)
	if key <= keys[0] {
		return vals[0]
	}
	i := n - 2
	for j := 0; j < n-1; j++ {
		if key <= keys[j+1] {
			i = j
			break
		}
	}
	lx0, lx1 := math.Log(keys[i]), math.Log(keys[i+1])
	ly0, ly1 := math.Log(vals[i]), math.Log(vals[i+1])
	t := (math.Log(key) - lx0) / (lx1 - lx0)
	return math.Exp(ly0 + t*(ly1-ly0))
}

// xOrdered returns the surface x keys and a parallel value slice sorted
// ascending in x (the rc order is descending in x, so it reverses).
func xOrdered(vals [3]float64) (keys, out []float64) {
	xs := surfaceXs()
	keys = []float64{xs[2], xs[1], xs[0]}
	out = []float64{vals[2], vals[1], vals[0]}
	return keys, out
}

// lowSafety returns the conservative multiplier for estimates below the
// surface's x range.
func lowSafety(x float64) float64 {
	xs := surfaceXs()
	if x < math.Min(xs[2], math.Min(xs[0], xs[1])) {
		return clampLowSafety
	}
	return 1
}

// estimateSPME predicts SPME's relative force error at mesh key x.
func estimateSPME(x float64) (float64, bool) {
	if !isFinite(x) || x <= 0 {
		return 0, false
	}
	keys, vals := xOrdered(surfaceSPME())
	return lowSafety(x) * logInterp(x, keys, vals), true
}

// estimateTME predicts the TME relative force error at mesh key x for a
// kernel family, grid-kernel cutoff and Gaussian count. For each
// measured rc row it first interpolates over the window key w = g_c·x
// within the row (capturing the g_c = 4 truncation penalty), then
// interpolates the three row values over x.
func estimateTME(kernel string, gc, m int, x float64) (float64, bool) {
	if !isFinite(x) || x <= 0 || m < 1 || m > 4 || gc < 1 {
		return 0, false
	}
	var ratio float64
	switch kernel {
	case "", "gauss":
		ratio = 1
	case "useries":
		ratio = useriesRatio()[m-1]
	default:
		return 0, false
	}
	xs := surfaceXs()
	gcs := surfaceGcs()
	tme := surfaceTME()
	w := float64(gc) * x
	var rows [3]float64
	for i := range xs {
		wKeys := []float64{float64(gcs[0]) * xs[i], float64(gcs[1]) * xs[i], float64(gcs[2]) * xs[i]}
		wVals := []float64{tme[i][0][m-1], tme[i][1][m-1], tme[i][2][m-1]}
		rows[i] = logInterp(w, wKeys, wVals)
	}
	keys, vals := xOrdered(rows)
	return ratio * lowSafety(x) * logInterp(x, keys, vals), true
}

// estimateMSM predicts the B-spline MSM relative force error: the TME
// gauss M=4 surface (the exact softened kernel) times a safety factor.
func estimateMSM(gc int, x float64) (float64, bool) {
	e, ok := estimateTME("gauss", gc, 4, x)
	if !ok {
		return 0, false
	}
	return msmSafety * e, true
}
