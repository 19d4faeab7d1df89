// Package chainnet realizes Corollary 1 as an actual message-passing
// system. It builds the paper's chain composition — the leader separated
// from a worst-case 𝒢(PD)₂ core by a static chain — and runs a
// full-information protocol on the runtime engine:
//
//	leader — c₁ — c₂ — … — c_m — {R₁, R₂} ⇄ W (adversarial schedule)
//
//	W nodes   broadcast their label-set history each round and learn their
//	          round-r label set from the relay beacons they hear;
//	relays    emit one observation fact per round — (round, label,
//	          multiset of neighbor states) — plus all earlier facts;
//	chain     nodes forward the union of all facts they have heard;
//	leader    reassembles the delayed leader view and feeds each completed
//	          round to its linear-system solver (kernel.IncrementalSolver),
//	          terminating when exactly one network size remains consistent.
//
// A state travels as its History.Index(2), the base-3 index the solver
// keys by, for as long as that index is exact in an int64 (length 39): a W
// node extends its index in O(1) a round, a relay counts the indices it
// hears into (index, count) pairs sorted by index, and the leader merges
// the two relays' lists into one sorted indexed observation
// (kernel.IncrementalSolver.AddRoundIndexed). Past that length W nodes and
// relays switch to History.Key strings, and the leader, whose solver takes
// indexed rounds only, stops consuming facts; it would need them only while
// its interval is still ambiguous. Either way a trace records each state as
// its History.Key.
//
// Every relay beacon crosses m+1 hops to reach the leader, so the count
// lands exactly delay = m+1 rounds after the ℳ(DBL)₂ bound: measured
// rounds = (m+1) + ⌊log₃(2n+1)⌋ + 1, the paper's D + Ω(log |V|) with the
// D-term made concrete. (In Lemma 1 the leader's memory is merged with the
// relays', hiding one hop; keeping the processes separate costs the honest
// extra round.)
package chainnet

import (
	"fmt"

	"anondyn/internal/core"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/multigraph"
)

// Network is a chain-composed Corollary 1 instance.
type Network struct {
	// Net is the dynamic graph: the schedule's Lemma-1 network with the
	// chain inserted, a *multigraph.PD2Net that serves the round engine
	// in CSR form.
	Net dynet.Dynamic
	// Leader is always node 0.
	Leader graph.NodeID
	// Chain lists the static chain nodes c₁..c_m in leader-to-core order.
	Chain []graph.NodeID
	// Relays holds the two labeled relay nodes (label j at Relays[j-1]).
	Relays []graph.NodeID
	// W holds the counted nodes.
	W []graph.NodeID
	// Schedule is the underlying ℳ(DBL)₂ schedule driving the relay-W
	// edges.
	Schedule *multigraph.Multigraph
}

// Delay returns the observation latency of the composition: the number of
// hops a relay fact needs to reach the leader, m+1.
func (nw *Network) Delay() int { return len(nw.Chain) + 1 }

// N returns the total node count.
func (nw *Network) N() int { return 1 + len(nw.Chain) + len(nw.Relays) + len(nw.W) }

// Build constructs the chain-composed network for n counted nodes and a
// static chain of chainLen intermediate nodes (chainLen = 0 attaches the
// relays directly to the leader). The relay-W edges follow
// core.WorstCaseSchedule(n), the Lemma 5 schedule extended past its
// divergence point.
func Build(n, chainLen int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("chainnet: need n >= 1, got %d", n)
	}
	if chainLen < 0 {
		return nil, fmt.Errorf("chainnet: negative chain length %d", chainLen)
	}
	m, err := core.WorstCaseSchedule(n)
	if err != nil {
		return nil, fmt.Errorf("chainnet: build schedule: %w", err)
	}
	return BuildFromSchedule(m, chainLen)
}

// BuildFromSchedule wires any ℳ(DBL)₂ schedule behind a chain: the network
// is the schedule's Lemma-1 transformation with the chain inserted
// (multigraph.ToPD2Chain), served to the round engine in CSR form. Build
// passes it the worst-case schedule; tests and tools pass their own (benign
// schedules, or the M′ twin).
func BuildFromSchedule(m *multigraph.Multigraph, chainLen int) (*Network, error) {
	if m.K() != 2 {
		return nil, fmt.Errorf("chainnet: schedule must have k=2, got %d", m.K())
	}
	if m.Horizon() == 0 {
		return nil, fmt.Errorf("chainnet: zero-horizon schedule")
	}
	net, layout, err := m.ToPD2Chain(chainLen)
	if err != nil {
		return nil, fmt.Errorf("chainnet: %w", err)
	}
	return &Network{
		Net:      net,
		Leader:   layout.Leader,
		Chain:    layout.Chain,
		Relays:   layout.V1,
		W:        layout.V2,
		Schedule: m,
	}, nil
}
