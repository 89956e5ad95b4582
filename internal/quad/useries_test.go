package quad

import (
	"math"
	"testing"
)

// shellN is the normalized middle-range shell Ĝ(x) = [erf(x) − erf(x/2)]/x.
func shellN(x float64) float64 {
	if x == 0 {
		return 1 / math.SqrtPi
	}
	return (math.Erf(x) - math.Erf(x/2)) / x
}

// forceNorm evaluates the force-weighted L² error ∫ (d/dx Δ)²·x² dx of a
// Gaussian-sum approximation Σ c_v·exp(−(τ_v·x)²) of the shell, by central
// differences on a fine grid.
func forceNorm(tau, c []float64) float64 {
	eval := func(x float64) float64 {
		var s float64
		for v := range tau {
			t := tau[v] * x
			s += c[v] * math.Exp(-t*t)
		}
		return s
	}
	const dx, h = 1e-3, 1e-4
	var l2 float64
	for x := dx; x <= 8.0; x += dx {
		d := ((eval(x+h) - shellN(x+h)) - (eval(x) - shellN(x))) / h
		l2 += d * d * x * x * dx
	}
	return math.Sqrt(l2)
}

// glShell maps the Gauss–Legendre rule onto the shell the way core.New
// does: τ_v = (3 − x_v)/4, c_v = w_v/(2√π).
func glShell(m int) (tau, c []float64) {
	nodes, weights := GaussLegendre(m)
	tau = make([]float64, m)
	c = make([]float64, m)
	for v := 0; v < m; v++ {
		tau[v] = (3 - nodes[v]) / 4
		c[v] = weights[v] / (2 * math.SqrtPi)
	}
	return tau, c
}

// TestUSeriesBeatsGaussLegendreForceNorm pins the design claim of the
// u-series family: in the force-weighted norm the fit minimizes, it is
// strictly more accurate than the M-point Gauss–Legendre rule for every
// M ≤ 3 (at M = 4 both are far below the grid-error floor of any real
// solve; see the kernel-family shootout rows in EXPERIMENTS.md).
func TestUSeriesBeatsGaussLegendreForceNorm(t *testing.T) {
	for m := 1; m <= 3; m++ {
		ut, uc := USeries(m)
		gt, gc := glShell(m)
		u, g := forceNorm(ut, uc), forceNorm(gt, gc)
		t.Logf("M=%d: useries %.3e vs GL %.3e (%.2fx)", m, u, g, u/g)
		if u >= g {
			t.Errorf("M=%d: u-series force norm %g not below Gauss-Legendre %g", m, u, g)
		}
	}
}

// TestUSeriesNodesInOctave: every width stays inside the shell's bounded
// support octave [1/2, 1], so g_c truncation of the grid kernels behaves no
// worse than for the Gauss–Legendre family.
func TestUSeriesNodesInOctave(t *testing.T) {
	for m := 1; m <= USeriesMaxM; m++ {
		tau, c := USeries(m)
		if len(tau) != m || len(c) != m {
			t.Fatalf("M=%d: got %d nodes, %d weights", m, len(tau), len(c))
		}
		for v, tv := range tau {
			if tv < 0.5 || tv > 1.0 {
				t.Errorf("M=%d: node %d = %g outside [1/2, 1]", m, v, tv)
			}
			if v > 0 {
				ratio := tau[v] / tau[v-1]
				want := useriesRatio[m]
				if math.Abs(ratio-want) > 1e-12 {
					t.Errorf("M=%d: node ratio %g, want geometric %g", m, ratio, want)
				}
			}
			if c[v] <= 0 {
				t.Errorf("M=%d: weight %d = %g not positive", m, v, c[v])
			}
		}
	}
}

// TestUSeriesDeterministic: repeated construction is bitwise identical —
// the weights feed kernel tables whose bits the determinism contracts pin.
func TestUSeriesDeterministic(t *testing.T) {
	for m := 1; m <= USeriesMaxM; m++ {
		t1, c1 := USeries(m)
		t2, c2 := USeries(m)
		for v := 0; v < m; v++ {
			if t1[v] != t2[v] || c1[v] != c2[v] {
				t.Fatalf("M=%d: non-reproducible nodes/weights", m)
			}
		}
	}
}

func TestUSeriesRange(t *testing.T) {
	for _, m := range []int{0, USeriesMaxM + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("USeries(%d): expected panic", m)
				}
			}()
			USeries(m)
		}()
	}
}
