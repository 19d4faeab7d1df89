package dynet

import (
	"fmt"

	"anondyn/internal/graph"
)

// FloodDelaying is the classic worst-case dissemination adversary (in the
// style of the lower bounds in Kuhn-Lynch-Oshman and Haeupler-Kuhn): it
// keeps every snapshot 1-interval connected with diameter at most 3, yet a
// flood from the designated source informs exactly one new node per round,
// making the dynamic "diameter" of that flood Θ(n). It demonstrates that D
// is a property of the adversary, not of the snapshots.
//
// The adversary is deterministic and oblivious: because flooding is a
// fixed protocol, the informed set after r rounds is predictable, so the
// adversary precommits to sacrificing nodes in index order: after round r
// the informed set is {src, p_1, ..., p_{r+1}} where p_i enumerates the
// other nodes ascending. Each round the informed nodes form a clique, the
// uninformed nodes form a clique, and a single bridge edge connects the
// next sacrifice to the informed side.
type FloodDelaying struct {
	n     int
	src   graph.NodeID
	order []graph.NodeID // non-source nodes in sacrifice order
}

// NewFloodDelaying builds the adversary for n nodes delaying a flood from
// src.
func NewFloodDelaying(n int, src graph.NodeID) (*FloodDelaying, error) {
	if n < 2 {
		return nil, fmt.Errorf("dynet: flood-delaying adversary needs >= 2 nodes, got %d", n)
	}
	if src < 0 || int(src) >= n {
		return nil, fmt.Errorf("dynet: source %d out of range [0,%d)", src, n)
	}
	order := make([]graph.NodeID, 0, n-1)
	for v := 0; v < n; v++ {
		if graph.NodeID(v) != src {
			order = append(order, graph.NodeID(v))
		}
	}
	return &FloodDelaying{n: n, src: src, order: order}, nil
}

// N implements Dynamic.
func (fd *FloodDelaying) N() int { return fd.n }

// Snapshot implements Dynamic. At round r the informed side is the source
// plus the first r sacrifices; the bridge touches sacrifice r (clamped once
// everyone is informed, after which the graph is a single clique).
func (fd *FloodDelaying) Snapshot(r int) *graph.Graph {
	if r < 0 {
		r = 0
	}
	g := graph.New(fd.n)
	informed := r // sacrifices already informed before round r
	if informed > len(fd.order) {
		informed = len(fd.order)
	}
	// Informed clique: src + order[:informed].
	inf := append([]graph.NodeID{fd.src}, fd.order[:informed]...)
	for i := 0; i < len(inf); i++ {
		for j := i + 1; j < len(inf); j++ {
			mustAddEdge(g, inf[i], inf[j])
		}
	}
	// Uninformed clique: order[informed:].
	un := fd.order[informed:]
	for i := 0; i < len(un); i++ {
		for j := i + 1; j < len(un); j++ {
			mustAddEdge(g, un[i], un[j])
		}
	}
	// Bridge: exactly one uninformed node touches the informed side.
	if len(un) > 0 {
		mustAddEdge(g, fd.src, un[0])
	}
	return g
}

// Properties implements PropertyCarrier: every snapshot is connected
// through the bridge, and the schedule is fixed up front.
func (fd *FloodDelaying) Properties() Properties {
	return Properties{IntervalConnected: true, SeedDeterministic: true}
}
