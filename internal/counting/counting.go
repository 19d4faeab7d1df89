// Package counting implements counting algorithms for anonymous dynamic
// networks, as message-passing processes on the runtime engine:
//
//   - StarCount: exact one-round counting on 𝒢(PD)₁ star networks — the
//     paper's observation that at persistent distance 1 anonymity is free.
//   - OracleCount: the Discussion's O(1)-round exact algorithm for
//     restricted 𝒢(PD)₂ networks whose nodes have a local degree oracle
//     (the model of [13]): V₂ nodes send 1/|N(v,r)| of a unit mass, V₁
//     relays aggregate, the leader sums exactly with rational arithmetic.
//   - PushSumEstimate: the gossip-style approximate size estimation of
//     Kempe et al. [8] under fair adversaries, as a baseline illustrating
//     what weaker adversaries permit.
//
// The exact counter matching the paper's lower bound lives in
// internal/core (CountOnMultigraph); this package holds the comparators.
package counting

import (
	"fmt"
	"math/big"
	"strconv"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// Runner is an execution engine: runtime.RunSequential or
// runtime.RunSharded.
type Runner func(*runtime.Config) (int, error)

// canon canonicalizes this package's message types for deterministic
// delivery order. The numeric keys are the strings fmt's %g and %d verbs
// would print, appended into a stack buffer so that each call allocates
// only the returned string.
func canon(m runtime.Message) string {
	var buf [64]byte
	b := buf[:0]
	switch v := m.(type) {
	case nil:
		return ""
	case string:
		return "s:" + v
	case *big.Rat:
		return "r:" + v.RatString()
	case float64:
		b = appendG(append(b, "f:"...), v)
	case [2]float64:
		b = appendG(append(b, "p:"...), v[0])
		b = appendG(append(b, ','), v[1])
	case distMsg:
		b = strconv.AppendInt(append(b, "d:"...), int64(v.Dist), 10)
		b = strconv.AppendInt(append(b, ','), int64(v.MaxSeen), 10)
	case incMsg:
		b = appendG(append(b, "n:"...), v.Share)
		b = strconv.AppendInt(append(b, ','), int64(v.AlarmK), 10)
	default:
		return runtime.DefaultCanon(m)
	}
	return string(b)
}

// appendG appends f exactly as fmt's %g verb prints it: the shortest
// decimal that reads back as f.
func appendG(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// helloProc broadcasts a constant beacon every round; used by leaf nodes of
// the star counter.
type helloProc struct{}

func (helloProc) Send(int) runtime.Message       { return "hello" }
func (helloProc) Receive(int, []runtime.Message) {}

// starLeader counts the beacons it hears in the first round. On a star
// (𝒢(PD)₁) every non-leader node is a neighbor, so the inbox size is
// |V| - 1 immediately: counting at persistent distance 1 costs one round,
// independent of anonymity.
type starLeader struct {
	count int
	done  bool
}

func (l *starLeader) Send(int) runtime.Message { return "hello" }

func (l *starLeader) Receive(r int, msgs []runtime.Message) {
	if r == 0 {
		l.count = len(msgs) + 1 // neighbors plus the leader itself
		l.done = true
	}
}

func (l *starLeader) Output() (int, bool) { return l.count, l.done }

// StarCount runs the one-round star counting protocol: the leader counts
// its round-0 inbox. The network must keep the leader connected to every
// other node at round 0 (any 𝒢(PD)₁ network qualifies; the adversary cannot
// alter a star without disconnecting it). Returns the total node count
// |V| and the number of rounds used.
func StarCount(net dynet.Dynamic, leader graph.NodeID, run Runner) (count, rounds int, err error) {
	n := net.N()
	if int(leader) < 0 || int(leader) >= n {
		return 0, 0, fmt.Errorf("counting: leader %d out of range [0,%d)", leader, n)
	}
	if deg := net.Snapshot(0).Degree(leader); deg != n-1 {
		return 0, 0, fmt.Errorf("counting: leader degree %d at round 0; star counting needs %d", deg, n-1)
	}
	procs := make([]runtime.Process, n)
	for i := range procs {
		if graph.NodeID(i) == leader {
			procs[i] = &starLeader{}
		} else {
			procs[i] = helloProc{}
		}
	}
	cfg := &runtime.Config{Net: net, Procs: procs, Canon: canon, MaxRounds: 2}
	value, rounds, ok, err := runtime.RunUntilOutput(cfg, int(leader), run)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, rounds, fmt.Errorf("counting: star leader did not terminate")
	}
	return value, rounds, nil
}
