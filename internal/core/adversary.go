package core

import (
	"fmt"

	"anondyn/internal/dynet"
	"anondyn/internal/multigraph"
)

// WorstCaseNetwork bundles the worst-case 𝒢(PD)₂ dynamic graph for a given
// W-size with its layout metadata.
type WorstCaseNetwork struct {
	// Net is the dynamic graph: leader + 2 anonymous relays + n nodes in
	// V₂, produced by the Lemma 1 transformation of the worst-case
	// multigraph.
	Net dynet.Dynamic
	// Layout maps the multigraph roles onto node IDs.
	Layout *multigraph.PD2Layout
	// Schedule is the underlying ℳ(DBL)₂ multigraph.
	Schedule *multigraph.Multigraph
}

// WorstCaseSchedule is the worst-case ℳ(DBL)₂ schedule for n counted
// nodes: the M side of the Lemma 5 pair (WorstCasePair), extended as
// Pair.Extend extends it two rounds past its indistinguishability horizon,
// so the count resolves on it. Only M is extended; no caller reads M′.
// Every worst-case network and count in the repository starts here.
func WorstCaseSchedule(n int) (*multigraph.Multigraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need n >= 1, got %d", n)
	}
	pair, err := WorstCasePair(n)
	if err != nil {
		return nil, err
	}
	return extend(pair.M, pair.Rounds+2)
}

// WorstCaseAdversary builds the worst-case persistent-distance-2 dynamic
// network for n counted nodes: the adversary plays WorstCaseSchedule(n),
// transformed into 𝒢(PD)₂ by Lemma 1. Any counting algorithm on the
// resulting network needs at least LowerBoundRounds(n) rounds.
//
// The adversary is oblivious — the schedule is fixed up front — which only
// strengthens the bound: even this weak adversary forces Ω(log n) rounds.
func WorstCaseAdversary(n int) (*WorstCaseNetwork, error) {
	m, err := WorstCaseSchedule(n)
	if err != nil {
		return nil, err
	}
	net, layout, err := m.ToPD2()
	if err != nil {
		return nil, err
	}
	return &WorstCaseNetwork{Net: net, Layout: layout, Schedule: m}, nil
}
