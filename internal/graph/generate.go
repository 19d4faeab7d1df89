package graph

import (
	"fmt"
	"math/rand"
)

// Star returns a star graph on n nodes with node `center` at the center.
// Star graphs are exactly the G(PD)_1 topologies: the adversary cannot
// change a star without disconnecting it, so the leader counts in one round.
func Star(n int, center NodeID) (*Graph, error) {
	g := New(n)
	if n == 0 {
		return g, nil
	}
	if err := g.check(center); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		if NodeID(v) == center {
			continue
		}
		if err := g.AddEdge(center, NodeID(v)); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Path returns the path graph 0-1-2-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		// Endpoints are in range and distinct by construction.
		_ = g.AddEdge(NodeID(v), NodeID(v+1))
	}
	return g
}

// Cycle returns the cycle graph 0-1-...-(n-1)-0. n must be at least 3.
func Cycle(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs at least 3 nodes, got %d", n)
	}
	g := Path(n)
	if err := g.AddEdge(NodeID(n-1), 0); err != nil {
		return nil, err
	}
	return g, nil
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			_ = g.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return g
}

// RandomConnected returns a connected graph on n nodes: a uniformly random
// spanning tree (random Prüfer-free attachment) plus each extra edge added
// independently with probability p. The rng drives all randomness so results
// are reproducible.
func RandomConnected(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	if n <= 1 {
		return g
	}
	// Random attachment tree: node i attaches to a uniform earlier node.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		_ = g.AddEdge(NodeID(perm[i]), NodeID(perm[j]))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(NodeID(u), NodeID(v)) && rng.Float64() < p {
				_ = g.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return g
}
