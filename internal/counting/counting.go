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
	"math"
	"math/big"
	"slices"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// Runner is the round engine a count runs on: runtime.RunSequential,
// runtime.RunSharded, or either one bound to a context.
type Runner = runtime.Engine

// key is the engines' ordering key for this package's messages
// (runtime.Config.CanonKey): a hash of what the message says, tagged by
// its type, which formats no string. Every receiver in this package reads
// its inbox as a multiset — the float shares add up in ascending order
// (sumAscending) — so neither ties nor collisions can change a run. nil,
// and any message that is not the package's, maps to 0.
func key(m runtime.Message) uint64 {
	var tag, a, b uint64
	switch v := m.(type) {
	case string:
		return runtime.StringKey(v)
	case *big.Rat:
		tag, a = 1, runtime.StringKey(v.RatString())
	case [2]float64:
		tag, a, b = 2, math.Float64bits(v[0]), math.Float64bits(v[1])
	case distMsg:
		tag, a, b = 3, uint64(v.Dist), uint64(v.MaxSeen)
	case *incMsg:
		tag, a, b = 4, math.Float64bits(v.Share), uint64(v.AlarmK)
	case idSetMsg:
		tag, a = 5, uint64(len(v))
		for _, id := range v {
			b = runtime.MixKey(b ^ uint64(id))
		}
	default:
		return 0
	}
	return runtime.MixKey(runtime.MixKey(tag<<56^a) ^ b)
}

// sumAscending sorts xs in place and adds it up in ascending order, so the
// float64 sum of an inbox's shares does not depend on the order the engine
// delivered them in.
func sumAscending(xs []float64) float64 {
	slices.Sort(xs)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

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
	cfg := &runtime.Config{Net: net, Procs: procs, CanonKey: key, MaxRounds: 2}
	value, rounds, ok, err := runtime.RunUntilOutput(cfg, int(leader), run)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, rounds, fmt.Errorf("counting: star leader did not terminate")
	}
	return value, rounds, nil
}
