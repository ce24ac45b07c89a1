package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/grid"
	"repro/internal/topology"
)

// Band returns all nodes in the vertical band x0 ≤ x < x0+width (wrapped on
// the torus). With width = r this is exactly the Fig 8 construction: the
// band contains r(2r+1) nodes of every closed neighborhood straddling it and
// cuts the torus when all of them crash.
func Band(net *topology.Network, x0, width int) []topology.NodeID {
	t := net.Torus()
	var out []topology.NodeID
	for dx := 0; dx < width; dx++ {
		x := ((x0+dx)%t.W + t.W) % t.W
		for y := 0; y < t.H; y++ {
			out = append(out, net.IDOf(grid.C(x, y)))
		}
	}
	return out
}

// CheckerboardBand returns the nodes of the width-w band whose coordinates
// satisfy (x+y) even — the Fig 13 style placement. In any closed L∞
// neighborhood the checkerboard half of a width-r band has at most
// ⌈r(2r+1)/2⌉ nodes, which is exactly the Byzantine impossibility bound.
// The parity alternates along wrapped columns only if the torus height is
// even; require it.
func CheckerboardBand(net *topology.Network, x0, width int) ([]topology.NodeID, error) {
	t := net.Torus()
	if t.H%2 != 0 {
		return nil, fmt.Errorf("fault: checkerboard band needs even torus height, got %d", t.H)
	}
	var out []topology.NodeID
	for dx := 0; dx < width; dx++ {
		x := ((x0+dx)%t.W + t.W) % t.W
		for y := 0; y < t.H; y++ {
			if (x+y)%2 == 0 {
				out = append(out, net.IDOf(grid.C(x, y)))
			}
		}
	}
	return out, nil
}

// GreedyBand fills the width-w band with as many faults as the budget t
// allows, visiting band nodes in checkerboard-first order. It produces a
// maximal adversarial band placement for achievability experiments: the
// hardest band the locally bounded adversary may legally build.
func GreedyBand(net *topology.Network, x0, width, t int) ([]topology.NodeID, error) {
	b, err := NewBudget(net, t)
	if err != nil {
		return nil, err
	}
	candidates := Band(net, x0, width)
	// Checkerboard parity first: these are the most damaging positions.
	ordered := make([]topology.NodeID, 0, len(candidates))
	for _, id := range candidates {
		c := net.CoordOf(id)
		if (c.X+c.Y)%2 == 0 {
			ordered = append(ordered, id)
		}
	}
	for _, id := range candidates {
		c := net.CoordOf(id)
		if (c.X+c.Y)%2 != 0 {
			ordered = append(ordered, id)
		}
	}
	for _, id := range ordered {
		if b.CanAdd(id) {
			if err := b.Add(id); err != nil {
				return nil, err
			}
		}
	}
	return b.Faulty(), nil
}

// TorusBands places a band construction at the two antipodal columns W/4
// and 3W/4 of the torus, in that order: one band does not cut a torus, two
// do. build returns the band that starts at column x0.
func TorusBands(net *topology.Network, build func(x0 int) ([]topology.NodeID, error)) ([]topology.NodeID, error) {
	w := net.Torus().W
	var out []topology.NodeID
	for _, x0 := range [2]int{w / 4, 3 * w / 4} {
		band, err := build(x0)
		if err != nil {
			return nil, err
		}
		out = append(out, band...)
	}
	return out, nil
}

// RandomBounded places faults by visiting all nodes in a seeded random
// order, marking each faulty while the budget t permits, until `target`
// faults are placed (or the placement saturates). target < 0 means "as many
// as possible". It works on any topology.Graph family.
func RandomBounded(g topology.Graph, t, target int, seed int64) ([]topology.NodeID, error) {
	b, err := NewBudget(g, t)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(g.Size())
	for _, idx := range perm {
		if target >= 0 && b.Total() >= target {
			break
		}
		id := topology.NodeID(idx)
		if b.CanAdd(id) {
			if err := b.Add(id); err != nil {
				return nil, err
			}
		}
	}
	return b.Faulty(), nil
}

// Percolation marks each node faulty independently with probability pf —
// the random-failure model the paper connects to site percolation (§XI).
// The source node is kept non-faulty so reachability is well-defined. It
// works on any topology.Graph family.
func Percolation(g topology.Graph, pf float64, source topology.NodeID, seed int64) ([]topology.NodeID, error) {
	if !(pf >= 0 && pf <= 1) { // NaN fails both bounds
		return nil, fmt.Errorf("fault: probability %v out of [0,1]", pf)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []topology.NodeID
	for i := 0; i < g.Size(); i++ {
		id := topology.NodeID(i)
		if id != source && rng.Float64() < pf {
			out = append(out, id)
		}
	}
	return out, nil
}
