package counting

import (
	"fmt"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// IDCount is the non-anonymous comparison point from the paper's
// conclusion: in dynamic networks WITH unique identifiers and unlimited
// bandwidth, counting costs the same order as the dynamic diameter [9].
//
// Protocol: every node floods the set of IDs it has heard. In a 1-interval
// connected network the leader's known-ID set grows by at least one node
// per round until complete (the standard causal-influence argument: each
// round some edge crosses the cut between reached and unreached nodes), so
// the FIRST round in which the leader's set does not grow proves the set
// complete, and the leader outputs its size. Termination is thus at most
// one round past the flood time — no Ω(log n) anonymity surcharge.
//
// The contrast with core.WorstCaseCountRounds on the same topologies is
// the measured cost of anonymity.

// idSetMsg carries a sorted set of node IDs.
type idSetMsg []int

// idLeader is a flooding node that also watches for the first
// non-growing round.
type idLeader struct {
	limitedIDProc
	count int
	done  bool
}

func (l *idLeader) Receive(r int, msgs []runtime.Message) {
	if l.done {
		return
	}
	before := len(l.known)
	l.limitedIDProc.Receive(r, msgs)
	if len(l.known) == before {
		// No growth: by 1-interval connectivity the set is complete.
		l.count = len(l.known)
		l.done = true
	}
}

func (l *idLeader) Output() (int, bool) { return l.count, l.done }

// IDCount runs the ID-flooding counter and returns the exact node count
// and the rounds used. The network must be 1-interval connected over the
// execution: the engine checks each round it runs and fails with a
// *dynet.ConnectivityError at the first disconnected one. The result is
// exact under that assumption.
func IDCount(net dynet.Dynamic, leader graph.NodeID, maxRounds int, run Runner) (count, rounds int, err error) {
	n := net.N()
	if int(leader) < 0 || int(leader) >= n {
		return 0, 0, fmt.Errorf("counting: leader %d out of range [0,%d)", leader, n)
	}
	if maxRounds < 1 {
		return 0, 0, fmt.Errorf("counting: maxRounds must be >= 1, got %d", maxRounds)
	}
	procs := make([]runtime.Process, n)
	var lp *idLeader
	for i := range procs {
		// At cap n no known set outgrows the cap, so every node sends
		// its whole sorted set: the unlimited-bandwidth flood.
		if graph.NodeID(i) == leader {
			lp = &idLeader{limitedIDProc: *newLimitedIDProc(i, n)}
			procs[i] = lp
		} else {
			procs[i] = newLimitedIDProc(i, n)
		}
	}
	cfg := &runtime.Config{
		Net:               net,
		Procs:             procs,
		CanonKey:          key,
		MaxRounds:         maxRounds,
		IntervalConnected: true,
	}
	value, rounds, ok, err := runtime.RunUntilOutput(cfg, int(leader), run)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, rounds, fmt.Errorf("counting: ID counter did not terminate within %d rounds", maxRounds)
	}
	return value, rounds, nil
}
