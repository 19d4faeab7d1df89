package multigraph

import (
	"fmt"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// PD2Layout describes the node placement of the Lemma-1 transformation from
// ℳ(DBL)ₖ to 𝒢(PD)₂: the leader is node 0 (V₀), the k relay nodes
// corresponding to edge labels 1..k occupy V₁, and the multigraph's W nodes
// occupy V₂. A network built by ToPD2Chain places its static chain between
// the leader and V₁.
type PD2Layout struct {
	// Leader is the leader node, always 0.
	Leader graph.NodeID
	// Chain lists the static chain nodes c₁..c_m in leader-to-core order;
	// it is empty unless the network was built by ToPD2Chain.
	Chain []graph.NodeID
	// V1 holds the relay node for each label: V1[j-1] relays label j.
	V1 []graph.NodeID
	// V2 holds the node for each w ∈ W in multigraph order.
	V2 []graph.NodeID
}

// N returns the transformed network's node count: 1 + m + k + |W|.
func (l *PD2Layout) N() int { return 1 + len(l.Chain) + len(l.V1) + len(l.V2) }

// ToPD2 performs the paper's Lemma-1 transformation: it builds the dynamic
// graph G^id ∈ 𝒢(PD)₂ in which node with identifier j in V₁ is connected at
// round r exactly to the W-nodes whose label set at round r contains j, and
// the leader is connected to all of V₁ at every round. Dropping the V₁
// identifiers (which the dynamic graph itself never carries — they exist
// only in the layout metadata) yields the anonymous instance G; counting on
// G is at least as hard as on G^id.
//
// The result is the *PD2Net that ToPD2CSR builds, so the round engine
// reads it in CSR form while every other consumer gets map graphs. Rounds
// at or beyond the multigraph's horizon repeat the final round's topology,
// making the result a legitimate infinite dynamic graph. A zero-horizon
// multigraph cannot be transformed.
func (m *Multigraph) ToPD2() (dynet.Dynamic, *PD2Layout, error) {
	net, layout, err := m.ToPD2CSR()
	if err != nil {
		return nil, nil, err
	}
	return net, layout, nil
}

// FromPD2 inverts the transformation: given a dynamic graph, a leader, an
// ordered list of V₁ relay nodes (the label assignment), and the V₂ nodes,
// it reads off the label schedule over the given number of rounds and
// reconstructs the ℳ(DBL)ₖ multigraph. It validates the structural
// constraints of the image of ToPD2: every V₂ node touches only V₁ nodes
// and has at least one edge per round, and the leader is connected to
// exactly V₁.
func FromPD2(d dynet.Dynamic, leader graph.NodeID, v1, v2 []graph.NodeID, rounds int) (*Multigraph, error) {
	k := len(v1)
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("multigraph: |V1|=%d out of range [1,%d]", k, MaxK)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("multigraph: need at least one round, got %d", rounds)
	}
	labelOf := make(map[graph.NodeID]int, k)
	for j, relay := range v1 {
		labelOf[relay] = j + 1
	}
	labels := make([][]LabelSet, len(v2))
	for i := range labels {
		labels[i] = make([]LabelSet, rounds)
	}
	for r := 0; r < rounds; r++ {
		g := d.Snapshot(r)
		for _, relay := range v1 {
			if !g.HasEdge(leader, relay) {
				return nil, fmt.Errorf("multigraph: leader not connected to relay %d at round %d", relay, r)
			}
		}
		for i, w := range v2 {
			var s LabelSet
			for _, u := range g.Neighbors(w) {
				j, ok := labelOf[u]
				if !ok {
					return nil, fmt.Errorf("multigraph: V2 node %d adjacent to non-relay %d at round %d", w, u, r)
				}
				s |= 1 << (j - 1)
			}
			if s == 0 {
				return nil, fmt.Errorf("multigraph: V2 node %d isolated at round %d", w, r)
			}
			labels[i][r] = s
		}
	}
	return New(k, labels)
}
