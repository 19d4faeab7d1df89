package counting

import (
	"fmt"

	"anondyn/internal/core"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// Builders for the standard adversary families the registry is exercised
// on. Every builder returns an Instance carrying the ground truth in TrueN
// and a Horizon generous enough for the exact linear-round algorithms
// (histtree needs at most 3n+8 rounds, idcount at most n, leaderstate at
// most ~2n; the incremental adapter extends its own polynomial budget).

func linearHorizon(n int) int { return 3*n + 10 }

// WorstCaseInstance builds the paper's worst-case adversary for |W| = w
// outer nodes, core.WorstCaseAdversary: the ℳ(DBL)₂ schedule extended past
// its indistinguishability horizon so counting can finish, transformed to
// its restricted 𝒢(PD)₂ network via Lemma 1. It carries both the network
// and the multigraph schedule, so every exact algorithm in the registry can
// run on it — the comparable family the zoo campaign sweeps.
func WorstCaseInstance(w int) (*Instance, error) {
	wc, err := core.WorstCaseAdversary(w)
	if err != nil {
		return nil, err
	}
	total := wc.Layout.N()
	inst := &Instance{
		Name:    fmt.Sprintf("worstcase-%d", w),
		Net:     wc.Net,
		Leader:  wc.Layout.Leader,
		V1:      wc.Layout.V1,
		V2:      wc.Layout.V2,
		M:       wc.Schedule,
		Horizon: linearHorizon(total),
		TrueN:   total,
	}
	inst.MaxDegree = observedMaxDegree(wc.Net, 8)
	return inst, nil
}

// CycleInstance is a static n-cycle — the symmetric family used for the
// histtree linear-slope measurements.
func CycleInstance(n int) (*Instance, error) {
	g, err := graph.Cycle(n)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:      fmt.Sprintf("cycle-%d", n),
		Net:       dynet.NewStatic(g),
		Leader:    0,
		MaxDegree: 2,
		Horizon:   linearHorizon(n),
		TrueN:     n,
	}, nil
}

// StarInstance is a static star with the leader at the hub — the 𝒢(PD)₁
// family where counting costs one round.
func StarInstance(n int) (*Instance, error) {
	g, err := graph.Star(n, 0)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:      fmt.Sprintf("star-%d", n),
		Net:       dynet.NewStatic(g),
		Leader:    0,
		MaxDegree: n - 1,
		Horizon:   linearHorizon(n),
		TrueN:     n,
	}, nil
}

// ChurnInstance is the fair randomized-churn adversary: each round is an
// independent connected random graph, satisfying the Fair requirement of
// convergence-based estimators.
func ChurnInstance(n int, seed int64) (*Instance, error) {
	net, err := dynet.NewTInterval(n, 1, 0.3, seed)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:      fmt.Sprintf("churn-%d-seed%d", n, seed),
		Net:       net,
		Leader:    0,
		MaxDegree: n - 1,
		Horizon:   10 * linearHorizon(n),
		TrueN:     n,
		Fair:      true,
	}, nil
}

// TIntervalInstance is the stability-window adversary: a fresh random
// connected topology held constant for windows of T rounds. The declared
// dynet.Properties ride along so Validate can match algorithms to the
// family's actual guarantees.
func TIntervalInstance(n, T int, seed int64) (*Instance, error) {
	net, err := dynet.NewTInterval(n, T, 0.2, seed)
	if err != nil {
		return nil, err
	}
	props := net.Properties()
	return &Instance{
		Name:      fmt.Sprintf("tinterval%d-%d-seed%d", T, n, seed),
		Net:       net,
		Leader:    0,
		MaxDegree: observedMaxDegree(net, 2*T),
		Horizon:   linearHorizon(n),
		TrueN:     n,
		Props:     &props,
	}, nil
}

// JoinLeaveInstance is the join/leave churn adversary: a stable core of
// ~n/3 nodes plus transients cycling through dwell-2 live/dead stints, with
// live-set accounting. Churned-out nodes are isolated, so the declared
// properties make Validate reject algorithms needing every snapshot
// connected; estimators run with TrueN as the full slot universe.
func JoinLeaveInstance(n int, seed int64) (*Instance, error) {
	coreSize := n / 3
	if coreSize < 1 {
		coreSize = 1
	}
	net, err := dynet.NewChurn(n, coreSize, 2, dynet.RejoinCycle, 0.15, seed)
	if err != nil {
		return nil, err
	}
	props := net.Properties()
	return &Instance{
		Name:      fmt.Sprintf("joinleave-%d-seed%d", n, seed),
		Net:       net,
		Leader:    0,
		MaxDegree: n - 1,
		Horizon:   10 * linearHorizon(n),
		TrueN:     n,
		Fair:      true,
		Props:     &props,
	}, nil
}

// RandomizedInstance is the seed-deterministic randomized adversary: an
// independent connected random graph every round, fair in the estimator
// sense and 1-interval connected for the exact algorithms.
func RandomizedInstance(n int, seed int64) (*Instance, error) {
	net, err := dynet.NewTInterval(n, 1, 0.3, seed)
	if err != nil {
		return nil, err
	}
	props := net.Properties()
	return &Instance{
		Name:      fmt.Sprintf("randomized-%d-seed%d", n, seed),
		Net:       net,
		Leader:    0,
		MaxDegree: n - 1,
		Horizon:   linearHorizon(n),
		TrueN:     n,
		Fair:      true,
		Props:     &props,
	}, nil
}

// FloodDelayInstance is the adaptive flood-delaying adversary, the
// worst-case 1-interval-connected family for flooding-based algorithms.
func FloodDelayInstance(n int) (*Instance, error) {
	net, err := dynet.NewFloodDelaying(n, 0)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:      fmt.Sprintf("flood-delay-%d", n),
		Net:       net,
		Leader:    0,
		MaxDegree: n - 1,
		Horizon:   linearHorizon(n),
		TrueN:     n,
	}, nil
}

// RestrictedPD2Instance is the rotating restricted 𝒢(PD)₂ network with k=2
// relays and `outer` V₂ nodes (moved here from cmd/anondyn so the oracle
// and upper-bound algorithms have a registry-native family). Odd-indexed V₂
// nodes touch both relays each round, so V₂ degrees are uneven — the
// irregular layout the degree-oracle counter must still sum exactly.
func RestrictedPD2Instance(outer int) (*Instance, error) {
	if outer < 1 {
		return nil, fmt.Errorf("counting: restricted PD2 instance needs at least 1 outer node, got %d", outer)
	}
	const k = 2
	total := 1 + k + outer
	v1 := []graph.NodeID{1, 2}
	v2 := make([]graph.NodeID, outer)
	for i := range v2 {
		v2[i] = graph.NodeID(1 + k + i)
	}
	// The relay subsets rotate with period k, so k snapshots serve every
	// round.
	snaps := make([]*graph.Graph, k)
	for r := range snaps {
		g := graph.New(total)
		for _, rel := range v1 {
			_ = g.AddEdge(0, rel)
		}
		for i, w := range v2 {
			_ = g.AddEdge(v1[(i+r)%k], w)
			if i%2 == 1 {
				_ = g.AddEdge(v1[(i+r+1)%k], w)
			}
		}
		snaps[r] = g
	}
	net, err := dynet.NewCyclic(snaps)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:      fmt.Sprintf("restricted-pd2-%d", outer),
		Net:       net,
		Leader:    0,
		V1:        v1,
		V2:        v2,
		MaxDegree: observedMaxDegree(net, 8),
		Horizon:   linearHorizon(total),
		TrueN:     total,
	}, nil
}

// observedMaxDegree scans the first `rounds` snapshots for the maximum
// degree, standing in for an a-priori degree bound on families that do not
// have a closed form. A network that serves CSR snapshots is read in that
// form, so the scan builds no map graph that would outlive it.
func observedMaxDegree(net dynet.Dynamic, rounds int) int {
	csrNet, isCSR := net.(dynet.CSRDynamic)
	maxDeg := 0
	for r := 0; r < rounds; r++ {
		var degree func(graph.NodeID) int
		if isCSR {
			degree = csrNet.SnapshotCSR(r).Degree
		} else {
			degree = net.Snapshot(r).Degree
		}
		for v := 0; v < net.N(); v++ {
			if d := degree(graph.NodeID(v)); d > maxDeg {
				maxDeg = d
			}
		}
	}
	return maxDeg
}
