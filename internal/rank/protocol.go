// Channel protocol of the rank engine. Each ordered pair of ranks (a, b)
// owns one channel whose per-step message schedule is fixed at
// construction time (linkSchedule): position halo, then (for b = a+1 mod
// R) the reaction forces owed to b's first slab, the computed short-force
// return, and in mesh mode the grid sleeves of every halo exchange in
// pipeline order, the top-grid gather/scatter legs, and the mesh-force
// return.
// The channel capacity equals the schedule length, so a sender never
// blocks; packets live in a per-link ring indexed by the schedule, which
// the engine's per-step barrier makes safe to reuse (every packet sent in
// step s is received and fully consumed before step s+1 starts).
package rank

import (
	"tme4a/internal/dist"
	"tme4a/internal/vec"
)

// Message kinds, in the order they appear within a step's schedule.
const (
	kindPos    uint8 = iota // position halo: atoms the receiver's windows need
	kindDef                 // Newton reaction forces owed to slab s1 (to rank+1 only)
	kindShort               // computed short-range forces returned to owners
	kindGrid                // packed halo sleeve of one dist exchange
	kindTopQ                // top-grid charge block gathered to rank 0
	kindTopPhi              // top-grid potential block scattered from rank 0
	kindMesh                // interpolated mesh forces returned to owners
)

// packet is one protocol message. idx/v carry (atom, vector) pairs for
// kindPos/kindDef/kindShort/kindMesh; fl carries floats for kindGrid
// (exact sleeve size) and kindTopQ/kindTopPhi (slice headers into the
// sender's grids — zero copy, safe under the per-step barrier).
type packet struct {
	kind uint8
	n    int
	idx  []int32
	v    []vec.V
	fl   []float64
}

// slotSpec describes one schedule position of a link.
type slotSpec struct {
	kind uint8
	fl   int // exact float payload length for kindGrid
}

// link is the channel plus packet ring of one ordered rank pair.
type link struct {
	ch    chan *packet
	slots []*packet
	// cur is the sender's schedule cursor, reset at the top of each round.
	cur int //tme:owner worker.run
}

// linkSchedule enumerates the fixed per-step message schedule of link
// a→b. Workers do not consult it at run time — their phase order emits
// exactly this sequence — but the packet ring is allocated from it and
// every send asserts its slot's kind, so a phase-order drift fails loudly
// instead of corrupting an exchange.
func linkSchedule(pl *dist.Plan, r, a, b int) []slotSpec {
	var s []slotSpec
	s = append(s, slotSpec{kind: kindPos})
	if b == (a+1)%r {
		s = append(s, slotSpec{kind: kindDef})
	}
	s = append(s, slotSpec{kind: kindShort})
	if pl != nil {
		L := pl.D.Levels
		for k := 0; k < L; k++ {
			if n := pl.Restrict[k].PackSize(a, b); n > 0 {
				s = append(s, slotSpec{kind: kindGrid, fl: n})
			}
		}
		if b == 0 && a != 0 {
			s = append(s, slotSpec{kind: kindTopQ})
		}
		if a == 0 && b != 0 {
			s = append(s, slotSpec{kind: kindTopPhi})
		}
		for k := L - 1; k >= 0; k-- {
			if n := pl.Prolong[k].PackSize(a, b); n > 0 {
				s = append(s, slotSpec{kind: kindGrid, fl: n})
			}
			for v := 0; v < pl.TME.Prm.M; v++ {
				if n := pl.Conv[k].PackSize(a, b); n > 0 {
					s = append(s, slotSpec{kind: kindGrid, fl: n})
				}
			}
		}
		if n := pl.Interp.PackSize(a, b); n > 0 {
			s = append(s, slotSpec{kind: kindGrid, fl: n})
		}
		s = append(s, slotSpec{kind: kindMesh})
	}
	return s
}

// newLink allocates the channel and packet ring for one schedule.
// Atom-list packets get full-capacity backing arrays so steady-state
// rounds never grow them.
func newLink(specs []slotSpec, natoms int) *link {
	lk := &link{ch: make(chan *packet, len(specs)), slots: make([]*packet, len(specs))}
	for i, sp := range specs {
		p := &packet{kind: sp.kind}
		switch sp.kind {
		case kindPos, kindDef, kindShort, kindMesh:
			p.idx = make([]int32, 0, natoms)
			p.v = make([]vec.V, 0, natoms)
		case kindGrid:
			p.fl = make([]float64, sp.fl)
		}
		lk.slots[i] = p
	}
	return lk
}

// packetBytes is the modeled wire size of a packet: 4-byte atom indices,
// 24-byte vectors, 8-byte floats.
func packetBytes(p *packet) int64 {
	switch p.kind {
	case kindGrid, kindTopQ, kindTopPhi:
		return int64(len(p.fl)) * 8
	default:
		return int64(len(p.idx)) * 28
	}
}
