package gcu

import "tme4a/internal/fixpoint"

// ConvSeparable applies kx, ky, kz along the three axes, returning a new
// grid in the same format as src.
func ConvSeparable(src *fixpoint.Grid32, kx, ky, kz Kernel) *fixpoint.Grid32 {
	t1 := fixpoint.NewGrid32(src.N[0], src.N[1], src.N[2], src.Fmt)
	t2 := fixpoint.NewGrid32(src.N[0], src.N[1], src.N[2], src.Fmt)
	ConvAxis(t1, src, 0, kx)
	ConvAxis(t2, t1, 1, ky)
	ConvAxis(t1, t2, 2, kz)
	return t1
}
