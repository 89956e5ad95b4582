package pmesh

// Oracles. assignSlabOracle and interpolateRangeOracle are the scatter and
// gather loops this package ran before spreading was restructured, kept
// verbatim: a wrap() modulo on every one of the p³ support points.
// Mesher.spread — behind AssignTo and AssignPlanes — must reproduce the
// scatter bit for bit. Mesher.gather — behind Interpolate and
// InterpolatePlanes — contracts the weights one axis at a time instead:
// interpolateRangeOracleXYZ is that x → y → z order written with the same
// per-point wraps, and pins it bitwise; interpolateRangeOracle, which
// multiplies out all three weights at every point, stays as a tolerance
// oracle within gatherTol of the sum of the absolute terms. At p = 6 the
// entry points run the order-6 bodies; the order-generic bodies, reached
// through assignAny and interpolateAny, are held to the same oracles, so
// the two bodies of each pass are bit-equal as well.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tme4a/internal/bspline"
	"tme4a/internal/grid"
	"tme4a/internal/vec"
)

func (m *Mesher) assignSlabOracle(g *grid.G, pos []vec.V, q []float64, zlo, zhi int) {
	p := m.P
	nx, ny, nz := m.N[0], m.N[1], m.N[2]
	full := zlo == 0 && zhi == nz
	var wx, wy, wz, d [MaxOrder]float64
	for i, r := range pos {
		qi := q[i]
		if qi == 0 {
			continue
		}
		uz := r[2] * m.invH[2]
		mz := bspline.Base(p, uz)
		if !full {
			hit := false
			for c := 0; c < p; c++ {
				if iz := wrap(mz+c, nz); iz >= zlo && iz < zhi {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		}
		ux := r[0] * m.invH[0]
		uy := r[1] * m.invH[1]
		mx := bspline.Weights(p, ux, wx[:p], d[:p])
		my := bspline.Weights(p, uy, wy[:p], d[:p])
		bspline.Weights(p, uz, wz[:p], d[:p])
		for c := 0; c < p; c++ {
			iz := wrap(mz+c, nz)
			if iz < zlo || iz >= zhi {
				continue
			}
			qz := qi * wz[c]
			for b := 0; b < p; b++ {
				iy := wrap(my+b, ny)
				qyz := qz * wy[b]
				row := g.Data[nx*(iy+ny*iz) : nx*(iy+ny*iz)+nx]
				for a := 0; a < p; a++ {
					row[wrap(mx+a, nx)] += qyz * wx[a]
				}
			}
		}
	}
}

func (m *Mesher) interpolateRangeOracle(phi *grid.G, pos []vec.V, q []float64, f []vec.V, lo, hi int) float64 {
	p := m.P
	var wx, wy, wz, dx, dy, dz [MaxOrder]float64
	nx, ny, nz := m.N[0], m.N[1], m.N[2]
	var energy float64
	for i := lo; i < hi; i++ {
		r := pos[i]
		qi := q[i]
		if qi == 0 {
			continue
		}
		ux := r[0] * m.invH[0]
		uy := r[1] * m.invH[1]
		uz := r[2] * m.invH[2]
		mx := bspline.Weights(p, ux, wx[:p], dx[:p])
		my := bspline.Weights(p, uy, wy[:p], dy[:p])
		mz := bspline.Weights(p, uz, wz[:p], dz[:p])
		var pot, gx, gy, gz float64
		for c := 0; c < p; c++ {
			iz := wrap(mz+c, nz)
			for b := 0; b < p; b++ {
				iy := wrap(my+b, ny)
				row := phi.Data[nx*(iy+ny*iz) : nx*(iy+ny*iz)+nx]
				wyz := wy[b] * wz[c]
				dyz := dy[b] * wz[c]
				wdz := wy[b] * dz[c]
				for a := 0; a < p; a++ {
					v := row[wrap(mx+a, nx)]
					pot += v * wx[a] * wyz
					gx += v * dx[a] * wyz
					gy += v * wx[a] * dyz
					gz += v * wx[a] * wdz
				}
			}
		}
		energy += 0.5 * qi * pot
		if f != nil {
			// ∇φ picks up 1/h per axis from d/dr = (1/h) d/du.
			f[i][0] -= qi * gx * m.invH[0]
			f[i][1] -= qi * gy * m.invH[1]
			f[i][2] -= qi * gz * m.invH[2]
		}
	}
	return energy
}

// interpolateRangeOracleXYZ is interpolateRangeOracle with the weights
// contracted innermost axis first: Σ_a v·wx and Σ_a v·dx per x-run (from
// the first product), folded from +0 over b with wy and dy into a plane's
// value, ∂x and ∂y sums, folded from +0 over c with wz (and the value sum
// with dz into ∂z).
func (m *Mesher) interpolateRangeOracleXYZ(phi *grid.G, pos []vec.V, q []float64, f []vec.V, lo, hi int) float64 {
	p := m.P
	var wx, wy, wz, dx, dy, dz [MaxOrder]float64
	nx, ny, nz := m.N[0], m.N[1], m.N[2]
	var energy float64
	for i := lo; i < hi; i++ {
		r := pos[i]
		qi := q[i]
		if qi == 0 {
			continue
		}
		mx := bspline.Weights(p, r[0]*m.invH[0], wx[:p], dx[:p])
		my := bspline.Weights(p, r[1]*m.invH[1], wy[:p], dy[:p])
		mz := bspline.Weights(p, r[2]*m.invH[2], wz[:p], dz[:p])
		var pot, gx, gy, gz float64
		for c := 0; c < p; c++ {
			iz := wrap(mz+c, nz)
			var pw, pdx, pdy float64
			for b := 0; b < p; b++ {
				iy := wrap(my+b, ny)
				row := phi.Data[nx*(iy+ny*iz) : nx*(iy+ny*iz)+nx]
				v := row[wrap(mx, nx)]
				sw, sd := float64(v*wx[0]), float64(v*dx[0])
				for a := 1; a < p; a++ {
					v := row[wrap(mx+a, nx)]
					sw += float64(v * wx[a])
					sd += float64(v * dx[a])
				}
				pw += float64(sw * wy[b])
				pdx += float64(sd * wy[b])
				pdy += float64(sw * dy[b])
			}
			pot += float64(pw * wz[c])
			gx += float64(pdx * wz[c])
			gy += float64(pdy * wz[c])
			gz += float64(pw * dz[c])
		}
		energy += 0.5 * qi * pot
		if f != nil {
			f[i][0] -= float64(qi * gx * m.invH[0])
			f[i][1] -= float64(qi * gy * m.invH[1])
			f[i][2] -= float64(qi * gz * m.invH[2])
		}
	}
	return energy
}

// rangeOracle is one of the two gather oracles.
type rangeOracle func(m *Mesher, phi *grid.G, pos []vec.V, q []float64, f []vec.V, lo, hi int) float64

// interpolateOracle is Interpolate's two-stage energy fold over a gather
// oracle: energyChunk-atom partials, summed in chunk order.
func (m *Mesher) interpolateOracle(gather rangeOracle, phi *grid.G, pos []vec.V, q []float64, f []vec.V) float64 {
	var energy float64
	for lo := 0; lo < len(pos); lo += energyChunk {
		hi := lo + energyChunk
		if hi > len(pos) {
			hi = len(pos)
		}
		energy += gather(m, phi, pos, q, f, lo, hi)
	}
	return energy
}

// gatherTol bounds the distance between the two gather orders, relative to
// the sum of the absolute values of the terms.
const gatherTol = 1e-13

// gatherScale returns Σ|terms| of Interpolate's energy and, per atom, of
// each force component: the all-weights loop on |φ| with |q| and |d|
// (B-spline weights are non-negative).
func (m *Mesher) gatherScale(phi *grid.G, pos []vec.V, q []float64) (float64, []vec.V) {
	p := m.P
	var wx, wy, wz, dx, dy, dz [MaxOrder]float64
	nx, ny, nz := m.N[0], m.N[1], m.N[2]
	var energy float64
	fs := make([]vec.V, len(pos))
	for i, r := range pos {
		qi := math.Abs(q[i])
		mx := bspline.Weights(p, r[0]*m.invH[0], wx[:p], dx[:p])
		my := bspline.Weights(p, r[1]*m.invH[1], wy[:p], dy[:p])
		mz := bspline.Weights(p, r[2]*m.invH[2], wz[:p], dz[:p])
		var pot, gx, gy, gz float64
		for c := 0; c < p; c++ {
			for b := 0; b < p; b++ {
				for a := 0; a < p; a++ {
					v := math.Abs(phi.Data[wrap(mx+a, nx)+nx*(wrap(my+b, ny)+ny*wrap(mz+c, nz))])
					pot += v * wx[a] * wy[b] * wz[c]
					gx += v * math.Abs(dx[a]) * wy[b] * wz[c]
					gy += v * wx[a] * math.Abs(dy[b]) * wz[c]
					gz += v * wx[a] * wy[b] * math.Abs(dz[c])
				}
			}
		}
		energy += 0.5 * qi * pot
		fs[i] = vec.V{qi * gx * m.invH[0], qi * gy * m.invH[1], qi * gz * m.invH[2]}
	}
	return energy, fs
}

// assertGatherWithin checks an energy and forces, gathered from phi onto
// forces that started at f0, against the all-three-weights order of
// interpolateRangeOracle, within gatherTol of Σ|terms| (plus |f0| for the
// forces).
func (m *Mesher) assertGatherWithin(t *testing.T, name string, phi *grid.G, pos []vec.V, q []float64, f0 []vec.V, gotE float64, gotF []vec.V) {
	t.Helper()
	wantF := append([]vec.V(nil), f0...)
	wantE := m.interpolateOracle((*Mesher).interpolateRangeOracle, phi, pos, q, wantF)
	scaleE, scaleF := m.gatherScale(phi, pos, q)
	if d := math.Abs(gotE - wantE); !(d <= gatherTol*scaleE) {
		t.Fatalf("%s: energy %.17g, all-weights order %.17g (|Δ| %.3g > %g·Σ|terms| %.3g)", name, gotE, wantE, d, gatherTol, scaleE)
	}
	for i := range wantF {
		for j := 0; j < 3; j++ {
			scale := scaleF[i][j] + math.Abs(f0[i][j])
			if d := math.Abs(gotF[i][j] - wantF[i][j]); !(d <= gatherTol*scale) {
				t.Fatalf("%s: force %d[%d] %.17g, all-weights order %.17g (|Δ| %.3g > %g·Σ|terms| %.3g)",
					name, i, j, gotF[i][j], wantF[i][j], d, gatherTol, scale)
			}
		}
	}
}

// oracleSystem is a charge set built to reach every branch of the spread
// and gather bodies: uniformly random atoms, atoms several box lengths
// outside the box on both sides, atoms placed so the support wraps on x
// alone, y alone, z alone, in pairs and on all three at once (at both ends of
// the ring), atoms on mesh points (where a weight is an exact zero), and
// atoms of charge +0 and −0 scattered through the list.
func oracleSystem(rng *rand.Rand, n int, m *Mesher) ([]vec.V, []float64) {
	box := m.Box
	pos, q := testSystem(rng, n, box)
	for i := 0; i < n/4; i++ {
		for j := 0; j < 3; j++ {
			pos[i][j] += float64(rng.Intn(9)-4) * box.L[j]
		}
	}
	h := m.H()
	for k := 0; k < 64; k++ {
		// Bit j of k puts axis j within one cell of an end of the ring, so
		// the support straddles it (bit 3 picks the end); the other axes
		// sit mid-box.
		var r vec.V
		for j := 0; j < 3; j++ {
			r[j] = box.L[j] * (0.4 + 0.2*rng.Float64())
			if k&(1<<j) != 0 {
				r[j] = h[j] * rng.Float64()
				if k&8 != 0 {
					r[j] = box.L[j] - r[j]
				}
			}
		}
		pos = append(pos, r)
		q = append(q, rng.NormFloat64())
	}
	for k := 0; k < 16; k++ {
		var r vec.V
		for j := 0; j < 3; j++ {
			r[j] = float64(rng.Intn(m.N[j])) * h[j]
		}
		pos = append(pos, r)
		q = append(q, rng.NormFloat64())
	}
	for i := 0; i < len(q); i += 7 {
		q[i] = math.Copysign(0, float64(i%2)-0.5)
	}
	return pos, q
}

// signedZeros returns n values of +0 and −0 in a pseudo-random pattern.
func signedZeros(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Copysign(0, rng.Float64()-0.5)
	}
	return v
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func assertGridBits(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d points, oracle %d", name, len(got), len(want))
	}
	for i := range want {
		if !sameBits(want[i], got[i]) {
			t.Fatalf("%s: mesh point %d: got %.17g, oracle %.17g", name, i, got[i], want[i])
		}
	}
}

func assertForceBits(t *testing.T, name string, want, got []vec.V) {
	t.Helper()
	for i := range want {
		for j := 0; j < 3; j++ {
			if !sameBits(want[i][j], got[i][j]) {
				t.Fatalf("%s: force %d[%d]: got %.17g, oracle %.17g", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// oracleMeshers covers the orders and ring lengths of the bodies' branches:
// the production p = 6 on 32³, on uneven and ragged grids and on a ring
// as short as its support (every x position but one wraps), where spread
// and gather run the order-6 bodies; p = 4 with a support as wide as the
// shortest ring; and the widest order. The ragged p = 6 meshes have
// power-of-two spacings, so oracleSystem's mesh-point atoms sit exactly on
// mesh points.
func oracleMeshers() []*Mesher {
	box := vec.Box{L: vec.V{3.1, 2.7, 3.4}}
	return []*Mesher{
		NewMesher(6, [3]int{32, 32, 32}, vec.Cubic(3)),
		NewMesher(6, [3]int{16, 12, 20}, box),
		NewMesher(6, [3]int{18, 16, 17}, vec.Box{L: vec.V{2.25, 2, 2.125}}),
		NewMesher(6, [3]int{6, 8, 12}, vec.Box{L: vec.V{1.5, 2, 3}}),
		NewMesher(4, [3]int{4, 6, 8}, box),
		NewMesher(16, [3]int{18, 16, 17}, box),
	}
}

func TestAssignMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, m := range oracleMeshers() {
		n := m.N
		pos, q := oracleSystem(rng, 300, m)
		// Every grid starts from the same +0/−0 pattern, so a zero product
		// added with the wrong sign shows.
		z0 := signedZeros(rng, n[0]*n[1]*n[2])
		fresh := func() *grid.G {
			g := grid.New(n[0], n[1], n[2])
			copy(g.Data, z0)
			return g
		}
		want := fresh()
		m.assignSlabOracle(want, pos, q, 0, n[2])
		name := fmt.Sprintf("p=%d %v", m.P, n)
		generic := fresh()
		m.assignAny(generic.Data, 0, n[2], pos, q)
		assertGridBits(t, "order-generic body "+name, want.Data, generic.Data)

		for _, procs := range []int{1, 2, 7} {
			got := fresh()
			withGOMAXPROCS(procs, func() { m.AssignTo(got, pos, q) })
			assertGridBits(t, fmt.Sprintf("AssignTo %s procs=%d", name, procs), want.Data, got.Data)
		}

		// Uneven slabs, each against the oracle slab and together against
		// the full grid.
		cut := 13 * n[2] / 32
		got, wantSlabs := fresh(), fresh()
		for _, s := range [][2]int{{0, cut}, {cut, n[2]}} {
			job{m: m, g: got, pos: pos, q: q}.assignSlab(s[0], s[1])
			m.assignSlabOracle(wantSlabs, pos, q, s[0], s[1])
		}
		assertGridBits(t, "assignSlab halves vs oracle slabs "+name, wantSlabs.Data, got.Data)
		assertGridBits(t, "assignSlab halves vs full grid "+name, want.Data, got.Data)

		// Plane blocks through the rank-mode entry point: every block must
		// hold exactly its planes of the full grid.
		idx := make([]int32, len(pos))
		for i := range idx {
			idx[i] = int32(i)
		}
		plane := n[0] * n[1]
		for _, s := range [][2]int{{0, cut}, {cut, n[2]}, {0, n[2]}, {n[2] - 1, n[2]}} {
			sub := grid.New(n[0], n[1], s[1]-s[0])
			copy(sub.Data, z0[plane*s[0]:])
			subAny := append([]float64(nil), sub.Data...)
			m.AssignPlanes(sub, s[0], idx, pos, q)
			assertGridBits(t, fmt.Sprintf("AssignPlanes %s planes %v", name, s), want.Data[plane*s[0]:plane*s[1]], sub.Data)
			m.assignAny(subAny, s[0], s[1], pos, q)
			assertGridBits(t, fmt.Sprintf("order-generic body %s planes %v", name, s), want.Data[plane*s[0]:plane*s[1]], subAny)
			for i, r := range pos {
				want := false
				mz := bspline.Base(m.P, r[2]*m.invH[2])
				for c := 0; c < m.P; c++ {
					if iz := wrap(mz+c, n[2]); iz >= s[0] && iz < s[1] {
						want = true
					}
				}
				if got := m.SupportHits(r, s[0], s[1]); got != want {
					t.Fatalf("SupportHits %s planes %v atom %d: %v, want %v", name, s, i, got, want)
				}
			}
		}
	}
}

// TestInterpolateMatchesOracle: Interpolate and InterpolatePlanes equal the
// x → y → z oracle bitwise, and that oracle stays within gatherTol of the
// all-weights order.
func TestInterpolateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, m := range oracleMeshers() {
		n := m.N
		pos, q := oracleSystem(rng, 600, m) // three energy chunks, the last one partial
		// The lowest third of the planes holds +0 and −0, so some supports
		// read only zeros and their energy terms and forces are zeros whose
		// sign the bodies must get right; every fifth force starts at ±0.
		phi := grid.New(n[0], n[1], n[2])
		plane := n[0] * n[1]
		copy(phi.Data, signedZeros(rng, plane*(n[2]/3)))
		for i := plane * (n[2] / 3); i < len(phi.Data); i++ {
			phi.Data[i] = rng.NormFloat64()
		}
		name := fmt.Sprintf("p=%d %v", m.P, n)
		wantF := make([]vec.V, len(pos))
		for i := range wantF {
			wantF[i] = vec.V{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			if i%5 == 0 {
				copy(wantF[i][:], signedZeros(rng, 3))
			}
		}
		f0 := append([]vec.V(nil), wantF...)
		wantE := m.interpolateOracle((*Mesher).interpolateRangeOracleXYZ, phi, pos, q, wantF)
		m.assertGatherWithin(t, "x→y→z oracle "+name, phi, pos, q, f0, wantE, wantF)

		genericF := append([]vec.V(nil), f0...)
		genericTerms := make([]float64, len(pos))
		m.interpolateAny(phi.Data, 0, n[2], nil, pos, q, genericTerms, genericF)
		if gotE := FoldEnergy(genericTerms, q); !sameBits(wantE, gotE) {
			t.Fatalf("order-generic body %s: energy %.17g, oracle %.17g", name, gotE, wantE)
		}
		assertForceBits(t, "order-generic body "+name, wantF, genericF)

		for _, procs := range []int{1, 2, 7} {
			gotF := append([]vec.V(nil), f0...)
			var gotE, nilE float64
			withGOMAXPROCS(procs, func() {
				gotE = m.Interpolate(phi, pos, q, gotF)
				nilE = m.Interpolate(phi, pos, q, nil)
			})
			if !sameBits(wantE, gotE) || !sameBits(wantE, nilE) {
				t.Fatalf("Interpolate %s procs=%d: energy %.17g (f == nil: %.17g), oracle %.17g", name, procs, gotE, nilE, wantE)
			}
			assertForceBits(t, fmt.Sprintf("Interpolate %s procs=%d", name, procs), wantF, gotF)
		}

		// Rank mode: each block gathers the atoms whose base plane it owns
		// from its planes plus the P−1 wrapped halo planes above them, and
		// the energy is folded from the per-atom terms.
		cut := 13 * n[2] / 32
		gotF, blockF := append([]vec.V(nil), f0...), append([]vec.V(nil), f0...)
		eterm, blockTerms := make([]float64, len(pos)), make([]float64, len(pos))
		for _, s := range [][2]int{{0, cut}, {cut, n[2]}} {
			ext := grid.New(n[0], n[1], s[1]-s[0]+m.P-1)
			for k := 0; k < ext.N[2]; k++ {
				src := wrap(s[0]+k, n[2])
				copy(ext.Data[plane*k:plane*(k+1)], phi.Data[plane*src:plane*(src+1)])
			}
			var idx []int32
			for i, r := range pos {
				if b := m.BasePlane(r); b >= s[0] && b < s[1] {
					idx = append(idx, int32(i))
				}
			}
			m.InterpolatePlanes(ext, s[0], idx, pos, q, eterm, gotF)
			m.interpolateAny(ext.Data, s[0], ext.N[2], idx, pos, q, blockTerms, blockF)
		}
		if gotE := FoldEnergy(eterm, q); !sameBits(wantE, gotE) {
			t.Fatalf("InterpolatePlanes %s: folded energy %.17g, oracle %.17g", name, gotE, wantE)
		}
		assertForceBits(t, "InterpolatePlanes "+name, wantF, gotF)
		assertGridBits(t, "InterpolatePlanes energy terms "+name, genericTerms, eterm)
		assertGridBits(t, "order-generic body energy terms in blocks "+name, genericTerms, blockTerms)
		assertForceBits(t, "order-generic body in blocks "+name, wantF, blockF)
	}
}

// TestInterpolatePlanesRejectsAtomOutsideWindow keeps the plan-time
// invariant loud: an atom whose support leaves the extended block is a
// caller bug, not a wrapped read of some other plane — in the order-6 body
// InterpolatePlanes runs and in the order-generic one alike.
func TestInterpolatePlanesRejectsAtomOutsideWindow(t *testing.T) {
	m := NewMesher(6, [3]int{16, 16, 16}, vec.Cubic(2))
	ext := grid.New(16, 16, 8+m.P-1) // planes [0, 8) plus halo
	pos := []vec.V{{1, 1, 1.9}}
	if b := m.BasePlane(pos[0]); b < 8 {
		t.Fatalf("test atom's base plane %d is inside the block", b)
	}
	for name, gather := range map[string]func(){
		"InterpolatePlanes": func() {
			m.InterpolatePlanes(ext, 0, []int32{0}, pos, []float64{1}, make([]float64, 1), nil)
		},
		"order-generic body": func() {
			m.interpolateAny(ext.Data, 0, ext.N[2], []int32{0}, pos, []float64{1}, make([]float64, 1), nil)
		},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside the interpolation window") {
					t.Errorf("%s: panic %v, want the interpolation-window panic", name, r)
				}
			}()
			gather()
		}()
	}
}
