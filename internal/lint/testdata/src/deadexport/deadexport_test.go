package deadexport

import "testing"

func TestCoordOfRoundTrip(t *testing.T) {
	c := Config{Size: [3]int{2, 3, 4}}
	for id := 0; id < c.Nodes(); id++ {
		co := c.CoordOf(id)
		if got := c.NodeID(co[0], co[1], co[2]); got != id {
			t.Fatalf("id %d -> %v -> %d", id, co, got)
		}
	}
	if OnlyTested() != 1 {
		t.Fatal("OnlyTested")
	}
}
