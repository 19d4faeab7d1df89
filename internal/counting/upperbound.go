package counting

import (
	"fmt"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// UpperBoundCount implements the style of counting pioneered by Michail,
// Chatzigiannakis and Spirakis [15]: in an anonymous network with a leader
// and a KNOWN upper bound d on node degree, the leader can compute an upper
// bound on |V| (not the exact count) from an upper bound on the network
// depth, since at most d·(d-1)^{i-1} nodes can sit at distance i.
//
// The protocol is distance propagation: the leader beacons distance 0;
// every node tracks the minimum distance it has heard plus one, and
// gossips the maximum distance anyone has claimed. On persistent-distance
// (and static) networks, after `rounds` ≥ 2·depth rounds the leader knows
// the exact depth e and outputs
//
//	bound = 1 + d + d² + ... + d^e ≥ |V|.
//
// The looseness of this bound against the exact counter is the gap between
// the related-work baselines and this paper's machinery.

// distMsg carries a node's current distance estimate and the largest
// settled distance it has heard of.
type distMsg struct {
	Dist    int // sender's own distance estimate; -1 when unknown
	MaxSeen int // largest settled distance heard anywhere
}

// distProc is the distance-propagation process.
type distProc struct {
	isLeader bool
	dist     int // -1 until learned
	maxSeen  int
}

func newDistProc(isLeader bool) *distProc {
	p := &distProc{isLeader: isLeader, dist: -1}
	if isLeader {
		p.dist = 0
	}
	return p
}

func (p *distProc) Send(int) runtime.Message {
	return distMsg{Dist: p.dist, MaxSeen: p.maxSeen}
}

func (p *distProc) Receive(_ int, msgs []runtime.Message) {
	for _, m := range msgs {
		dm, ok := m.(distMsg)
		if !ok {
			continue
		}
		if dm.Dist >= 0 && (p.dist < 0 || dm.Dist+1 < p.dist) && !p.isLeader {
			p.dist = dm.Dist + 1
		}
		if dm.MaxSeen > p.maxSeen {
			p.maxSeen = dm.MaxSeen
		}
	}
	if p.dist > p.maxSeen {
		p.maxSeen = p.dist
	}
}

// UpperBoundResult reports an upper-bound counting run.
type UpperBoundResult struct {
	// Bound is the computed upper bound on |V|.
	Bound int
	// Depth is the largest distance the leader learned about.
	Depth int
	// Rounds is the number of rounds executed.
	Rounds int
}

// UpperBoundCount runs distance propagation for the given number of rounds
// and returns the leader's size upper bound. maxDegree must genuinely bound
// every node's degree over the executed rounds; this is validated and an
// error returned otherwise (the algorithm's soundness depends on it).
// rounds should be at least twice the network depth for the depth estimate
// to settle; on persistent-distance networks 2·h rounds always suffice.
func UpperBoundCount(net dynet.Dynamic, leader graph.NodeID, maxDegree, rounds int, run Runner) (UpperBoundResult, error) {
	n := net.N()
	if int(leader) < 0 || int(leader) >= n {
		return UpperBoundResult{}, fmt.Errorf("counting: leader %d out of range [0,%d)", leader, n)
	}
	if maxDegree < 1 {
		return UpperBoundResult{}, fmt.Errorf("counting: max degree must be >= 1, got %d", maxDegree)
	}
	if rounds < 1 {
		return UpperBoundResult{}, fmt.Errorf("counting: rounds must be >= 1, got %d", rounds)
	}
	for r := 0; r < rounds; r++ {
		g := net.Snapshot(r)
		for v := 0; v < n; v++ {
			if deg := g.Degree(graph.NodeID(v)); deg > maxDegree {
				return UpperBoundResult{}, fmt.Errorf("counting: node %d has degree %d > claimed bound %d at round %d",
					v, deg, maxDegree, r)
			}
		}
	}
	procs := make([]runtime.Process, n)
	var lp *distProc
	for i := range procs {
		p := newDistProc(graph.NodeID(i) == leader)
		if graph.NodeID(i) == leader {
			lp = p
		}
		procs[i] = p
	}
	cfg := &runtime.Config{
		Net:       net,
		Procs:     procs,
		CanonKey:  key,
		MaxRounds: rounds,
	}
	executed, err := run(cfg)
	if err != nil {
		return UpperBoundResult{}, err
	}
	depth := lp.maxSeen
	const maxInt = int(^uint(0) >> 1)
	bound := 1
	term := 1
	for i := 0; i < depth; i++ {
		if term > maxInt/maxDegree || bound > maxInt-term*maxDegree {
			// Geometric-sum overflow for deep networks with large d.
			return UpperBoundResult{}, fmt.Errorf("counting: upper bound overflows int at depth %d", i+1)
		}
		term *= maxDegree
		bound += term
	}
	return UpperBoundResult{Bound: bound, Depth: depth, Rounds: executed}, nil
}
