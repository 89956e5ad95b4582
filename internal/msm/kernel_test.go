package msm

import (
	"math"
	"testing"

	"tme4a/internal/bspline"
	"tme4a/internal/core"
	"tme4a/internal/spme"
	"tme4a/internal/units"
	"tme4a/internal/vec"
)

// kernelCase is a box and solver configuration msm.New builds kernels for.
type kernelCase struct {
	name string
	box  vec.Box
	prm  Params
}

// kernelCases are the operating points of the repository's runs: the
// Table-1 box (4096 waters, 16³) at two kernel cutoffs, the served msm-mid
// job (216 waters, 16³), the mesh-fine box (1000 waters, 32³) and an
// anisotropic box and grid on two levels at p = 4.
func kernelCases() []kernelCase {
	water := func(n int) vec.Box { return vec.Cubic(math.Cbrt(float64(n) / units.TIP3PDensity)) }
	prm := func(rc float64, n, levels, gc int) Params {
		return Params{Alpha: spme.AlphaFromRTol(rc, 1e-4), Rc: rc, Order: 6, N: [3]int{n, n, n}, Levels: levels, Gc: gc}
	}
	served := water(216)
	aniso := prm(1.0, 32, 2, 6)
	aniso.N, aniso.Order = [3]int{32, 16, 32}, 4
	return []kernelCase{
		{"table1-gc8", water(4096), prm(1.0, 16, 1, 8)},
		{"table1-gc12", water(4096), prm(1.5, 16, 1, 12)},
		{"serve-mix", served, prm(math.Min(0.9, 0.45*served.L[0]), 16, 1, 8)},
		{"mesh-fine", water(1000), prm(0.5, 32, 1, 8)},
		{"aniso", vec.Box{L: vec.V{4, 2.5, 3.5}}, aniso},
	}
}

// TestLevelKernelIsEven: every kernel New builds — the level-invariant one
// and each pre-scaled level copy — is exactly even along each axis, as
// grid.ConvDirect3DAccum requires.
func TestLevelKernelIsEven(t *testing.T) {
	for _, tc := range kernelCases() {
		s := New(tc.prm, tc.box)
		gc := tc.prm.Gc
		k := 2*gc + 1
		at := func(mx, my, mz int) int { return (mx + gc) + k*((my+gc)+k*(mz+gc)) }
		for l, kern := range append([][]float64{levelKernel3D(tc.prm, s.Mesher.H())}, s.Kernels...) {
			for mz := -gc; mz <= gc; mz++ {
				for my := -gc; my <= gc; my++ {
					for mx := -gc; mx <= gc; mx++ {
						v := kern[at(mx, my, mz)]
						for axis, mirror := range []int{at(-mx, my, mz), at(mx, -my, mz), at(mx, my, -mz)} {
							if math.Float64bits(kern[mirror]) != math.Float64bits(v) {
								t.Fatalf("%s kernel %d: (%d,%d,%d) = %.17g, mirrored on axis %d %.17g",
									tc.name, l, mx, my, mz, v, axis, kern[mirror])
							}
						}
					}
				}
			}
		}
	}
}

// TestLevelKernelsScaled: each level's kernel is the level-invariant one
// times the level-l prefactor Coulomb/2^{l-1}, bit for bit.
func TestLevelKernelsScaled(t *testing.T) {
	for _, tc := range kernelCases() {
		s := New(tc.prm, tc.box)
		kernel := levelKernel3D(tc.prm, s.Mesher.H())
		if len(s.Kernels) != tc.prm.Levels {
			t.Fatalf("%s: %d level kernels, want %d", tc.name, len(s.Kernels), tc.prm.Levels)
		}
		for l, kl := range s.Kernels {
			scale := units.Coulomb / math.Pow(2, float64(l))
			for i, k := range kernel {
				if math.Float64bits(kl[i]) != math.Float64bits(k*scale) {
					t.Fatalf("%s level %d [%d] = %.17g, want %.17g", tc.name, l+1, i, kl[i], k*scale)
				}
			}
		}
	}
}

// fullCubeKernel3D is levelKernel3D as it was before the kernel was built
// from its octant: the shell sampled over the whole extended cube and every
// ω′ pass run over every output of it, then truncated to the g_c window.
func fullCubeKernel3D(prm Params, h vec.V) []float64 {
	gc := prm.Gc
	const pad = 26
	ext := gc + pad
	side := 2*ext + 1
	buf := make([]float64, side*side*side)
	for mz := -ext; mz <= ext; mz++ {
		for my := -ext; my <= ext; my++ {
			for mx := -ext; mx <= ext; mx++ {
				r := math.Sqrt(float64(mx*mx)*h[0]*h[0] + float64(my*my)*h[1]*h[1] + float64(mz*mz)*h[2]*h[2])
				buf[(mx+ext)+side*((my+ext)+side*(mz+ext))] = core.ShellExact(prm.Alpha, 1, r)
			}
		}
	}
	wp := bspline.OmegaSq(prm.Order, pad)
	tmp := make([]float64, side*side*side)
	convAxis := func(src, dst []float64, axis int) {
		st := [3]int{1, side, side * side}[axis]
		for c := 0; c < side; c++ {
			for b := 0; b < side; b++ {
				var base int
				switch axis {
				case 0:
					base = side * (b + side*c)
				case 1:
					base = b + side*side*c
				default:
					base = b + side*c
				}
				for i := 0; i < side; i++ {
					var sum float64
					for m := -pad; m <= pad; m++ {
						jj := i - m
						if jj < 0 || jj >= side {
							continue
						}
						sum += float64(wp[m+pad] * src[base+jj*st])
					}
					dst[base+i*st] = sum
				}
			}
		}
	}
	convAxis(buf, tmp, 0)
	convAxis(tmp, buf, 1)
	convAxis(buf, tmp, 2)
	k := 2*gc + 1
	out := make([]float64, k*k*k)
	for mz := -gc; mz <= gc; mz++ {
		for my := -gc; my <= gc; my++ {
			for mx := -gc; mx <= gc; mx++ {
				out[(mx+gc)+k*((my+gc)+k*(mz+gc))] = tmp[(mx+ext)+side*((my+ext)+side*(mz+ext))]
			}
		}
	}
	return out
}

// TestLevelKernelMatchesFullCube: the octant construction computes exactly
// the full cube's entries at m ≥ 0 on every axis; only the mirrored entries,
// which the full cube summed in other orders, may differ.
func TestLevelKernelMatchesFullCube(t *testing.T) {
	for _, tc := range kernelCases() {
		t.Run(tc.name, func(t *testing.T) {
			h := New(tc.prm, tc.box).Mesher.H()
			got, want := levelKernel3D(tc.prm, h), fullCubeKernel3D(tc.prm, h)
			gc := tc.prm.Gc
			k := 2*gc + 1
			for mz := 0; mz <= gc; mz++ {
				for my := 0; my <= gc; my++ {
					for mx := 0; mx <= gc; mx++ {
						i := (mx + gc) + k*((my+gc)+k*(mz+gc))
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("(%d,%d,%d) = %.17g, full cube %.17g", mx, my, mz, got[i], want[i])
						}
					}
				}
			}
		})
	}
}
