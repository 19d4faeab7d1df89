package counting

import (
	"fmt"
	"math/big"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// The degree-oracle counter (paper, Discussion section). In a restricted
// 𝒢(PD)₂ network — no edges inside a layer, every V₂ node adjacent only to
// V₁ nodes — where every node knows |N(v,r)| before the send phase, the
// count is computable in a constant number of rounds:
//
//	round 0: each V₂ node broadcasts 1/|N(v,0)|; relays collect.
//	round 1: each V₁ relay broadcasts the exact rational sum it received;
//	         the leader adds the sums — Σ_v |N(v,0)|·(1/|N(v,0)|) = |V₂| —
//	         and already knows |V₁| from its own degree oracle.
//
// The leader outputs 1 + |V₁| + |V₂| after two rounds, for any |V|. The
// contrast with LowerBoundRounds is the paper's point: one bit of local
// knowledge (the degree, before sending) collapses Ω(log |V|) to O(1).

// oracleOuter is a V₂ node: it learns its degree via the oracle and sends
// its mass share in round 0.
type oracleOuter struct {
	degree int
}

func (o *oracleOuter) SetDegree(r, d int) {
	if r == 0 {
		o.degree = d
	}
}

func (o *oracleOuter) Send(r int) runtime.Message {
	if r != 0 {
		return nil
	}
	if o.degree <= 0 {
		// Disconnected at round 0: contributes nothing (the driver
		// validates the network, so this is defensive).
		return nil
	}
	return new(big.Rat).SetFrac64(1, int64(o.degree))
}

func (o *oracleOuter) Receive(int, []runtime.Message) {}

// oracleRelay is a V₁ node: it sums the rational shares received in round 0
// and forwards the exact sum in round 1.
type oracleRelay struct {
	sum *big.Rat
}

func (rl *oracleRelay) Send(r int) runtime.Message {
	if r == 1 {
		if rl.sum == nil {
			return new(big.Rat)
		}
		return rl.sum
	}
	return nil
}

func (rl *oracleRelay) Receive(r int, msgs []runtime.Message) {
	if r != 0 {
		return
	}
	rl.sum = new(big.Rat)
	for _, m := range msgs {
		if q, ok := m.(*big.Rat); ok {
			rl.sum.Add(rl.sum, q)
		}
	}
}

// oracleLeader learns |V₁| from its degree oracle and sums the relay
// aggregates received in round 1.
type oracleLeader struct {
	v1    int
	total *big.Rat
	done  bool
}

func (l *oracleLeader) SetDegree(r, d int) {
	if r == 0 {
		l.v1 = d
	}
}

func (l *oracleLeader) Send(int) runtime.Message { return nil }

func (l *oracleLeader) Receive(r int, msgs []runtime.Message) {
	if r != 1 {
		return
	}
	l.total = new(big.Rat)
	for _, m := range msgs {
		if q, ok := m.(*big.Rat); ok {
			l.total.Add(l.total, q)
		}
	}
	l.done = true
}

func (l *oracleLeader) Output() (int, bool) {
	if !l.done {
		return 0, false
	}
	if !l.total.IsInt() {
		// Mass conservation guarantees integrality on valid restricted
		// PD₂ networks; a fractional total means the network violated the
		// restriction.
		return 0, false
	}
	return 1 + l.v1 + int(l.total.Num().Int64()), true
}

// OracleCount runs the degree-oracle algorithm on a restricted 𝒢(PD)₂
// network with the given layer partition (V₁ relays and V₂ outer nodes).
// It validates the restriction on round 0 and 1 snapshots: V₂ nodes must
// touch only V₁ nodes, and the leader only V₁ nodes. Returns the exact
// total count |V| and the rounds used (always 2).
func OracleCount(net dynet.Dynamic, leader graph.NodeID, v1, v2 []graph.NodeID, run Runner) (count, rounds int, err error) {
	role, err := checkRestricted(net, leader, v1, v2, 2, false)
	if err != nil {
		return 0, 0, err
	}
	n := net.N()
	procs := make([]runtime.Process, n)
	for i := 0; i < n; i++ {
		switch role[graph.NodeID(i)] {
		case 0:
			procs[i] = &oracleLeader{}
		case 1:
			procs[i] = &oracleRelay{}
		default:
			procs[i] = &oracleOuter{}
		}
	}
	cfg := &runtime.Config{Net: net, Procs: procs, CanonKey: key, MaxRounds: 3}
	value, rounds, ok, err := runtime.RunUntilOutput(cfg, int(leader), run)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, rounds, fmt.Errorf("counting: oracle leader did not terminate")
	}
	return value, rounds, nil
}

// checkRestricted checks that leader, v1 and v2 partition net's nodes and
// that the first `rounds` snapshots are restricted 𝒢(PD)₂: every V₂ node
// touches at least one node and only V₁ relays, and the leader touches only
// relays — all of them at every round when allRelays is set. It returns
// each node's role: 0 leader, 1 relay, 2 outer.
func checkRestricted(net dynet.Dynamic, leader graph.NodeID, v1, v2 []graph.NodeID, rounds int, allRelays bool) (map[graph.NodeID]int, error) {
	n := net.N()
	if 1+len(v1)+len(v2) != n {
		return nil, fmt.Errorf("counting: layers cover %d nodes, network has %d", 1+len(v1)+len(v2), n)
	}
	role := make(map[graph.NodeID]int, n)
	role[leader] = 0
	for _, v := range v1 {
		role[v] = 1
	}
	for _, v := range v2 {
		role[v] = 2
	}
	if len(role) != n {
		return nil, fmt.Errorf("counting: layers overlap or miss nodes")
	}
	for r := 0; r < rounds; r++ {
		g := net.Snapshot(r)
		for _, v := range v2 {
			if g.Degree(v) == 0 {
				return nil, fmt.Errorf("counting: V2 node %d isolated at round %d", v, r)
			}
			for _, u := range g.Neighbors(v) {
				if role[u] != 1 {
					return nil, fmt.Errorf("counting: V2 node %d adjacent to non-relay %d at round %d (network not restricted)", v, u, r)
				}
			}
		}
		if allRelays && g.Degree(leader) != len(v1) {
			return nil, fmt.Errorf("counting: leader has degree %d at round %d, want all %d relays", g.Degree(leader), r, len(v1))
		}
		for _, u := range g.Neighbors(leader) {
			if role[u] != 1 {
				return nil, fmt.Errorf("counting: leader adjacent to non-relay %d at round %d", u, r)
			}
		}
	}
	return role, nil
}
