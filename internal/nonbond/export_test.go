package nonbond

import (
	"encoding/binary"
	"hash/fnv"
)

// ListHash returns an FNV-64a hash of the owned slabs' lists, in slab
// order: each slab's entries, field by field, then its runs.
func (v *VerletList) ListHash() uint64 {
	h := fnv.New64a()
	var b []byte
	for s := v.s0; s < v.s1; s++ {
		sl := &v.sl[s]
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(len(sl.ent))<<32|uint64(len(sl.runs)))
		for _, e := range sl.ent {
			b = binary.LittleEndian.AppendUint32(b, uint32(e.j))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.jo))
			b = binary.LittleEndian.AppendUint16(b, e.mask)
			b = binary.LittleEndian.AppendUint16(b, e.excl)
			b = append(b, byte(e.img[0]), byte(e.img[1]), byte(e.img[2]))
		}
		for _, r := range sl.runs {
			b = binary.LittleEndian.AppendUint32(b, uint32(r.c))
			b = binary.LittleEndian.AppendUint32(b, uint32(r.end))
		}
		h.Write(b)
	}
	return h.Sum64()
}
