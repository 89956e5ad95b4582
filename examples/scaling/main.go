// Scaling: evaluate the Sec. III.C cost model and the strong-scaling
// comparison of PME, B-spline MSM and TME, and measure the actual
// separable-vs-direct convolution speedup on this host — the computational
// argument for the TME design.
//
// Run with: go run ./examples/scaling
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"tme4a/internal/expt"
	"tme4a/internal/grid"
	"tme4a/internal/perfmodel"
)

func main() {
	fmt.Println("=== Sec III.C analytic cost model ===")
	expt.RunCostModel(os.Stdout)

	fmt.Println("\n=== measured: separable (TME) vs direct 3D (MSM) convolution ===")
	rng := rand.New(rand.NewSource(1))
	src := grid.New(32, 32, 32)
	for i := range src.Data {
		src.Data[i] = rng.NormFloat64()
	}
	gc := 8
	m := 4
	// The separable convolution takes even kernels: mirror a random half.
	k1 := make([]float64, 2*gc+1)
	for i := 0; i <= gc; i++ {
		k1[i] = rng.NormFloat64()
		k1[2*gc-i] = k1[i]
	}
	// The direct convolution takes kernels even along every axis: each
	// entry copies a random octant entry (|mx|, |my|, |mz|).
	k := len(k1)
	at := func(mx, my, mz int) int { return (mx + gc) + k*((my+gc)+k*(mz+gc)) }
	k3 := make([]float64, k*k*k)
	for i := range k3 {
		k3[i] = rng.NormFloat64()
	}
	for mz := -gc; mz <= gc; mz++ {
		for my := -gc; my <= gc; my++ {
			for mx := -gc; mx <= gc; mx++ {
				k3[at(mx, my, mz)] = k3[at(max(mx, -mx), max(my, -my), max(mz, -mz))]
			}
		}
	}

	sep := timeIt(func() {
		for v := 0; v < m; v++ {
			grid.ConvSeparable(src, k1, k1, k1)
		}
	})
	dir := timeIt(func() { grid.ConvDirect3D(src, k3, gc) })
	fmt.Printf("separable (M=%d Gaussians): %v\n", m, sep)
	fmt.Printf("direct 3D (exact kernel):  %v\n", dir)
	fmt.Printf("measured speedup: %.1fx\n", float64(dir)/float64(sep))
	// The paper counts every tap; both codes fold mirrored taps, (g_c+1)³
	// products per point for the direct convolution and 3·M·(g_c+1) for
	// the separable one.
	fmt.Printf("analytic, unfolded taps (paper, perfmodel): %.1fx\n",
		perfmodel.CompCostMSM(gc, 32)/perfmodel.CompCostTME(gc, 32, m))
	fmt.Printf("analytic, folded products (as run here):    %.1fx\n",
		float64((gc+1)*(gc+1))/float64(3*m))
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
