// Plane-subset charge assignment and back interpolation for the
// rank-decomposed run mode (internal/dist, internal/rank).
//
// A rank owns the contiguous, non-wrapping plane block [zlo, zlo+own) of
// the finest mesh. AssignPlanes scatters a rank's atom window onto that
// block; InterpolatePlanes gathers potentials for the rank's interpolation-
// owned atoms from an extended block that includes the upper halo planes.
// Both run the per-atom bodies AssignTo and Interpolate run (Mesher.spread,
// Mesher.gather), so the per-plane grid values and the per-atom
// energy terms and forces are those of a full-grid AssignTo / Interpolate
// as long as the caller feeds atoms in ascending global index order (the
// serial particle order); FoldEnergy, which Interpolate ends with, turns
// the gathered terms into its return value.

package pmesh

import (
	"tme4a/internal/bspline"
	"tme4a/internal/grid"
	"tme4a/internal/vec"
)

// BasePlane returns the wrapped z base plane of a position: the first of
// the P consecutive (wrapped) mesh planes its spline support touches.
// Interpolation ownership in the rank engine is "base plane ∈ my block".
func (m *Mesher) BasePlane(r vec.V) int {
	return wrap(bspline.Base(m.P, r[2]*m.invH[2]), m.N[2])
}

// SupportHits reports whether the spline support of a position touches any
// global plane in [zlo, zhi) (zhi ≤ N[2], non-wrapping block). It is the
// hit test charge assignment itself applies, so a sender using it ships
// exactly the atoms the receiving rank's AssignPlanes will accept.
//
//tme:noalloc
func (m *Mesher) SupportHits(r vec.V, zlo, zhi int) bool {
	var oz [MaxOrder]int
	return m.supportPlanes(oz[:m.P], r[2]*m.invH[2], zlo, zhi)
}

// AssignPlanes scatters the charges of the atoms listed in idx (ascending
// global index) onto sub, which holds the global mesh planes
// [zlo, zlo+sub.N[2]). Atoms whose support misses the block are skipped by
// the same hit test as AssignTo's slabs. The caller zeroes sub.
//
//tme:noalloc
func (m *Mesher) AssignPlanes(sub *grid.G, zlo int, idx []int32, pos []vec.V, q []float64) {
	for _, i := range idx {
		m.spread(sub.Data, zlo, zlo+sub.N[2], pos[i], q[i])
	}
}

// InterpolatePlanes gathers potentials for the atoms listed in idx — whose
// base plane must lie in [zlo, zlo+own) — from ext, which holds the global
// potential planes [zlo, zlo+ext.N[2]) (own block plus P−1 upper halo
// planes, wrapped). It writes the per-atom energy term ½·q_i·φ_i into
// eterm[i] and accumulates forces into f[i] (both indexed by global atom
// index); FoldEnergy over the terms of all ranks is Interpolate's return
// value.
//
//tme:noalloc
func (m *Mesher) InterpolatePlanes(ext *grid.G, zlo int, idx []int32, pos []vec.V, q []float64, eterm []float64, f []vec.V) {
	for _, i := range idx {
		if q[i] != 0 {
			eterm[i] = m.gather(ext.Data, zlo, ext.N[2], pos[i], q[i], f, int(i))
		}
	}
}
