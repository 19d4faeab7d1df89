// Package dynet models dynamic networks: infinite sequences of per-round
// graph snapshots over a fixed node set (the paper's Definition 1), plus the
// analyses the paper performs on them — 1-interval connectivity, flooding
// and the dynamic diameter D, and persistent-distance (G(PD)_h) membership.
//
// A dynamic graph is exposed through the Dynamic interface. Snapshots must
// be deterministic: Snapshot(r) called twice returns equal graphs, so the
// adversary's choices are reproducible and executions can be replayed.
package dynet

import (
	"fmt"

	"anondyn/internal/graph"
)

// Dynamic is a dynamic graph G = {G_0, G_1, ...}: a fixed node set with a
// (conceptually infinite) sequence of per-round snapshots chosen by an
// adversary. Implementations must be deterministic in r.
type Dynamic interface {
	// N returns the number of nodes, constant across rounds.
	N() int
	// Snapshot returns the communication graph at round r >= 0.
	Snapshot(r int) *graph.Graph
}

// CSRDynamic is an optional extension of Dynamic for implementations that
// can serve their snapshots in flat CSR form without materializing the
// map-based adjacency of graph.Graph. The round engine probes for it: at
// 10⁶ nodes the map representation is the memory and cache bottleneck, not
// the protocol.
//
// SnapshotCSR must describe the same topology Snapshot(r) would return.
// The returned CSR may reuse the backing arrays of the previous call
// (snapshot-view ownership, see graph.CSR), so callers use it before
// requesting another round and never across calls. Implementations must be
// deterministic in r.
//
// SnapshotCSR returns the pointer its previous call returned only when the
// topology is unchanged; a rebuild returns another pointer. A caller that
// makes every call itself, as the round engine does within a run, may
// therefore skip validating and checking a snapshot whose pointer repeats
// the one it checked last.
type CSRDynamic interface {
	Dynamic
	SnapshotCSR(r int) *graph.CSR
}

// Static is a dynamic graph whose topology never changes: the degenerate
// adversary. It is the baseline for "static network" comparisons.
type Static struct {
	g *graph.Graph
}

// NewStatic wraps a single graph as an unchanging dynamic graph.
func NewStatic(g *graph.Graph) *Static { return &Static{g: g} }

// N implements Dynamic.
func (s *Static) N() int { return s.g.N() }

// Snapshot implements Dynamic; every round returns the same topology.
func (s *Static) Snapshot(int) *graph.Graph { return s.g }

// Cyclic repeats a finite list of snapshots forever. It is how figures with
// finitely many drawn rounds (e.g. the paper's Figure 1) become infinite
// dynamic graphs.
type Cyclic struct {
	n      int
	rounds []*graph.Graph
}

// NewCyclic builds a cyclic dynamic graph from one or more snapshots, all of
// which must have the same node count.
func NewCyclic(rounds []*graph.Graph) (*Cyclic, error) {
	if len(rounds) == 0 {
		return nil, fmt.Errorf("dynet: cyclic dynamic graph needs at least one snapshot")
	}
	n := rounds[0].N()
	for i, g := range rounds {
		if g.N() != n {
			return nil, fmt.Errorf("dynet: snapshot %d has %d nodes, want %d", i, g.N(), n)
		}
	}
	cp := make([]*graph.Graph, len(rounds))
	copy(cp, rounds)
	return &Cyclic{n: n, rounds: cp}, nil
}

// N implements Dynamic.
func (c *Cyclic) N() int { return c.n }

// Snapshot implements Dynamic.
func (c *Cyclic) Snapshot(r int) *graph.Graph {
	if r < 0 {
		r = 0
	}
	return c.rounds[r%len(c.rounds)]
}

// Func adapts a pure function to the Dynamic interface. The function must be
// deterministic in r.
type Func struct {
	n  int
	fn func(r int) *graph.Graph
}

// NewFunc wraps fn as a Dynamic over n nodes.
func NewFunc(n int, fn func(r int) *graph.Graph) *Func {
	return &Func{n: n, fn: fn}
}

// N implements Dynamic.
func (f *Func) N() int { return f.n }

// Snapshot implements Dynamic.
func (f *Func) Snapshot(r int) *graph.Graph { return f.fn(r) }

// Compile-time interface checks.
var (
	_ Dynamic = (*Static)(nil)
	_ Dynamic = (*Cyclic)(nil)
	_ Dynamic = (*Func)(nil)
)
