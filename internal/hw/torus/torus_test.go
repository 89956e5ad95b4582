package torus

import (
	"math"
	"testing"
)

// TestNodeIDRoundTrip: NodeID numbers the nodes 0, 1, … x-fastest, so
// every id has exactly one coordinate.
func TestNodeIDRoundTrip(t *testing.T) {
	cfg := MDGRAPE4A()
	id := 0
	for z := 0; z < cfg.Size[2]; z++ {
		for y := 0; y < cfg.Size[1]; y++ {
			for x := 0; x < cfg.Size[0]; x++ {
				if got := cfg.NodeID(Coord{x, y, z}); got != id {
					t.Fatalf("(%d,%d,%d) -> %d, want %d", x, y, z, got, id)
				}
				id++
			}
		}
	}
	if id != cfg.NNodes() {
		t.Fatalf("%d coordinates for %d nodes", id, cfg.NNodes())
	}
}

func TestSendNeighborLatency(t *testing.T) {
	cfg := MDGRAPE4A()
	nw := NewNetwork(cfg)
	// 256-byte block to a neighbour: 200 ns + 256/7.2 ns.
	got := nw.Send(Coord{0, 0, 0}, Coord{1, 0, 0}, 256, 0)
	want := 200 + 256/7.2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("arrival %g, want %g", got, want)
	}
}

func TestSendMultiHopAccumulatesLatency(t *testing.T) {
	cfg := MDGRAPE4A()
	nw := NewNetwork(cfg)
	got := nw.Send(Coord{0, 0, 0}, Coord{2, 3, 0}, 64, 0)
	hops := 5.0
	want := hops * (200 + 64/7.2)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("arrival %g, want %g", got, want)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	cfg := MDGRAPE4A()
	nw := NewNetwork(cfg)
	// Two messages leaving node 0 on the same +x link at t=0: second
	// serializes behind the first.
	a1 := nw.Send(Coord{0, 0, 0}, Coord{1, 0, 0}, 720, 0) // 100 ns serialization
	a2 := nw.Send(Coord{0, 0, 0}, Coord{1, 0, 0}, 720, 0)
	if a2 <= a1 {
		t.Errorf("no serialization: %g vs %g", a1, a2)
	}
	if math.Abs((a2-a1)-100) > 1e-9 {
		t.Errorf("serialization gap %g, want 100", a2-a1)
	}
	// Opposite-direction link is independent.
	b := nw.Send(Coord{0, 0, 0}, Coord{7, 0, 0}, 720, 0)
	if math.Abs(b-(200+100)) > 1e-9 {
		t.Errorf("−x link should be free: %g", b)
	}
}

func TestSendToSelf(t *testing.T) {
	nw := NewNetwork(MDGRAPE4A())
	if got := nw.Send(Coord{3, 3, 3}, Coord{3, 3, 3}, 1000, 42); got != 42 {
		t.Errorf("self send arrival %g", got)
	}
}
