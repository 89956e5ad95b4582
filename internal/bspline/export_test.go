package bspline

// Deriv returns dM_p/dx.
func Deriv(p int, x float64) float64 {
	t := x + float64(p)/2
	return cardinal(p-1, t) - cardinal(p-1, t-1)
}

// Omega returns the fundamental-spline interpolation filter ω of order p,
// defined by Σ_m ω_m M_p(n−m) = δ_{n0}, truncated to |m| ≤ maxM and indexed
// ω[m+maxM]. It is computed by spectral inversion of the Euler–Frobenius
// trigonometric polynomial E_p(θ) = Σ_k M_p(k) e^{−ikθ}.
func Omega(p, maxM int) []float64 {
	return invertSpectrum(p, maxM, 1)
}
