// Package torus models the MDGRAPE-4A 3D-torus interconnect: an 8×8×8
// node array with six bidirectional links per node, dimension-ordered
// routing, 200 ns neighbour latency and 7.2 GB/s raw link bandwidth
// (paper Sec. II).
package torus

import "fmt"

// Coord is a node coordinate in the torus.
type Coord struct{ X, Y, Z int }

// Config describes the torus geometry and link characteristics.
type Config struct {
	Size       [3]int  // nodes per axis (8×8×8 for MDGRAPE-4A)
	HopLatency float64 // ns per hop (200 ns measured)
	Bandwidth  float64 // bytes/ns (7.2 GB/s = 7.2 bytes/ns)
}

// MDGRAPE4A returns the production machine's torus configuration.
func MDGRAPE4A() Config {
	return Config{Size: [3]int{8, 8, 8}, HopLatency: 200, Bandwidth: 7.2}
}

// Network tracks per-link occupancy for contention-aware send timing.
type Network struct {
	Cfg Config
	// nextFree[link] for the 6 directed links of each node:
	// link = node*6 + dir, dirs: +x,−x,+y,−y,+z,−z.
	nextFree []float64
}

// NewNetwork returns an idle network.
func NewNetwork(cfg Config) *Network {
	n := cfg.Size[0] * cfg.Size[1] * cfg.Size[2]
	return &Network{Cfg: cfg, nextFree: make([]float64, n*6)}
}

// NodeID flattens a coordinate.
func (c Config) NodeID(co Coord) int {
	return co.X + c.Size[0]*(co.Y+c.Size[1]*co.Z)
}

// NNodes returns the total node count.
func (c Config) NNodes() int { return c.Size[0] * c.Size[1] * c.Size[2] }

// axisSteps returns the signed minimal hop count along one axis.
func axisSteps(from, to, n int) int {
	d := (to - from) % n
	if d < 0 {
		d += n
	}
	if d > n/2 {
		d -= n
	}
	return d
}

// linkIndex returns the directed-link slot leaving node co toward the next
// hop along axis with direction dir (±1).
func (n *Network) linkIndex(co Coord, axis, dir int) int {
	id := n.Cfg.NodeID(co)
	slot := axis * 2
	if dir < 0 {
		slot++
	}
	return id*6 + slot
}

// Send models a store-and-forward message of the given size from a to b
// starting no earlier than at, reserving each directed link in turn.
// It returns the arrival time at b. Messages to self arrive immediately.
func (n *Network) Send(a, b Coord, bytes float64, at float64) float64 {
	if a == b {
		return at
	}
	ser := bytes / n.Cfg.Bandwidth
	cur := a
	t := at
	for axis := 0; axis < 3; axis++ {
		var f, tgt int
		switch axis {
		case 0:
			f, tgt = cur.X, b.X
		case 1:
			f, tgt = cur.Y, b.Y
		default:
			f, tgt = cur.Z, b.Z
		}
		d := axisSteps(f, tgt, n.Cfg.Size[axis])
		dir := 1
		if d < 0 {
			dir = -1
			d = -d
		}
		for s := 0; s < d; s++ {
			li := n.linkIndex(cur, axis, dir)
			start := t
			if n.nextFree[li] > start {
				start = n.nextFree[li]
			}
			n.nextFree[li] = start + ser
			t = start + n.Cfg.HopLatency + ser
			switch axis {
			case 0:
				cur.X = wrap(cur.X+dir, n.Cfg.Size[0])
			case 1:
				cur.Y = wrap(cur.Y+dir, n.Cfg.Size[1])
			default:
				cur.Z = wrap(cur.Z+dir, n.Cfg.Size[2])
			}
		}
	}
	return t
}

func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }
