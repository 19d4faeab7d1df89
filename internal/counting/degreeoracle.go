package counting

import (
	"fmt"
	"math/big"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// The role-discovering degree-oracle counter: the paper's Discussion-section
// O(1) protocol without the layout side-channel. OracleCount (oracle.go)
// hands every process its layer up front and finishes in 2 rounds; here the
// only distinguished process is the leader — every other node runs the same
// anonymous code and learns its layer from the message flow, at the cost of
// two extra announcement rounds:
//
//	round 0: the leader broadcasts "L"; in restricted 𝒢(PD)₂ exactly the
//	         V₁ relays hear it. The leader records |V₁| = its own degree.
//	round 1: self-identified relays broadcast "R"; exactly the V₂ outer
//	         nodes (and the leader, which ignores it) hear it.
//	round 2: self-identified outer nodes broadcast their mass share
//	         1/|N(v,2)|, known via the degree oracle before sending.
//	round 3: relays broadcast the exact rational sum they collected; the
//	         leader adds them up — mass conservation gives Σ = |V₂| — and
//	         outputs 1 + |V₁| + |V₂|.
//
// Four rounds for any |V|: still O(1), so the paper's contrast with the
// Ω(log |V|) anonymous bound survives removing the layout oracle. Messages
// are strings ("L", "R", "m:<rat>", "s:<rat>") so the engines' canonical
// ordering applies unchanged.

// degOracleWorker is every non-leader node: an anonymous process that
// discovers whether it is a relay or an outer node from the announcements.
type degOracleWorker struct {
	relay, outer bool
	degree       int // latest oracle reading, consumed at round 2
	sum          *big.Rat
}

func (w *degOracleWorker) SetDegree(r, d int) { w.degree = d }

func (w *degOracleWorker) Send(r int) runtime.Message {
	switch {
	case r == 1 && w.relay:
		return "R"
	case r == 2 && w.outer:
		if w.degree <= 0 {
			// Disconnected at the mass round: contributes nothing (the
			// driver validates the network, so this is defensive).
			return nil
		}
		return "m:" + new(big.Rat).SetFrac64(1, int64(w.degree)).RatString()
	case r == 3 && w.relay:
		sum := w.sum
		if sum == nil {
			sum = new(big.Rat)
		}
		return "s:" + sum.RatString()
	}
	return nil
}

func (w *degOracleWorker) Receive(r int, msgs []runtime.Message) {
	switch r {
	case 0:
		for _, m := range msgs {
			if m == "L" {
				w.relay = true
			}
		}
	case 1:
		if w.relay {
			return
		}
		for _, m := range msgs {
			if m == "R" {
				w.outer = true
			}
		}
	case 2:
		if !w.relay {
			return
		}
		w.sum = new(big.Rat)
		for _, m := range msgs {
			if s, ok := m.(string); ok && len(s) > 2 && s[:2] == "m:" {
				q, ok := new(big.Rat).SetString(s[2:])
				if !ok {
					continue
				}
				w.sum.Add(w.sum, q)
			}
		}
	}
}

// degOracleLeader announces itself in round 0, learns |V₁| from its degree
// oracle, and sums the relay aggregates arriving in round 3.
type degOracleLeader struct {
	v1    int
	total *big.Rat
	done  bool
}

func (l *degOracleLeader) SetDegree(r, d int) {
	if r == 0 {
		l.v1 = d
	}
}

func (l *degOracleLeader) Send(r int) runtime.Message {
	if r == 0 {
		return "L"
	}
	return nil
}

func (l *degOracleLeader) Receive(r int, msgs []runtime.Message) {
	if r != 3 {
		return
	}
	l.total = new(big.Rat)
	for _, m := range msgs {
		if s, ok := m.(string); ok && len(s) > 2 && s[:2] == "s:" {
			q, ok := new(big.Rat).SetString(s[2:])
			if !ok {
				continue
			}
			l.total.Add(l.total, q)
		}
	}
	l.done = true
}

func (l *degOracleLeader) Output() (int, bool) {
	if !l.done || !l.total.IsInt() {
		// A fractional total means the network violated the restriction;
		// mass conservation guarantees integrality on valid instances.
		return 0, false
	}
	return 1 + l.v1 + int(l.total.Num().Int64()), true
}

// DegreeOracleCount runs the role-discovering degree-oracle counter on a
// restricted 𝒢(PD)₂ network. The layers v1/v2 are used only to validate the
// restriction over the protocol's four rounds — unlike OracleCount, no
// process is told its layer. Returns the exact |V| and rounds used (always
// 4).
func DegreeOracleCount(net dynet.Dynamic, leader graph.NodeID, v1, v2 []graph.NodeID, run Runner) (count, rounds int, err error) {
	// The leader must touch every relay: round 0 tells each relay its
	// role, round 3 delivers each relay's aggregate back.
	if _, err := checkRestricted(net, leader, v1, v2, 4, true); err != nil {
		return 0, 0, err
	}
	n := net.N()
	procs := make([]runtime.Process, n)
	for i := 0; i < n; i++ {
		if graph.NodeID(i) == leader {
			procs[i] = &degOracleLeader{}
		} else {
			procs[i] = &degOracleWorker{}
		}
	}
	cfg := &runtime.Config{Net: net, Procs: procs, CanonKey: key, MaxRounds: 6}
	value, rounds, ok, err := runtime.RunUntilOutput(cfg, int(leader), run)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, rounds, fmt.Errorf("counting: degree-oracle leader did not terminate")
	}
	return value, rounds, nil
}
