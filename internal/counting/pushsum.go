package counting

import (
	"fmt"
	"math"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// PushSum is the gossip-based size estimator in the style of Kempe, Dobra
// and Gehrke [8], adapted to the anonymous broadcast model with a degree
// oracle. Every node starts with value 1; the leader additionally starts
// with weight 1. Each round a node splits its (value, weight) mass into
// |N(v,r)|+1 equal shares, keeps one, and broadcasts one to each neighbor.
// Mass is conserved, so every node's value/weight ratio converges to
// Σvalues / Σweights = |V| under fair adversaries that keep the network
// well-mixed. Under the worst-case adversary convergence can be delayed
// arbitrarily — which is exactly why the paper's exact bound matters.
type pushSumProc struct {
	value, weight float64
	degree        int
	// scratch: the value and weight shares heard this round
	values, weights []float64
}

func (p *pushSumProc) SetDegree(r, d int) { p.degree = d }

func (p *pushSumProc) Send(int) runtime.Message {
	shares := float64(p.degree + 1)
	out := [2]float64{p.value / shares, p.weight / shares}
	p.value /= shares
	p.weight /= shares
	return out
}

func (p *pushSumProc) Receive(_ int, msgs []runtime.Message) {
	p.values, p.weights = p.values[:0], p.weights[:0]
	for _, m := range msgs {
		if pair, ok := m.([2]float64); ok {
			p.values = append(p.values, pair[0])
			p.weights = append(p.weights, pair[1])
		}
	}
	p.value += sumAscending(p.values)
	p.weight += sumAscending(p.weights)
}

// estimate returns the node's current size estimate, or NaN with no weight.
func (p *pushSumProc) estimate() float64 {
	if p.weight <= 0 {
		return math.NaN()
	}
	return p.value / p.weight
}

// PushSumResult reports a push-sum run.
type PushSumResult struct {
	// Estimate is the leader's final size estimate.
	Estimate float64
	// Rounds is the number of rounds executed until stabilization (or the
	// round limit).
	Rounds int
	// Converged is true when the stopping rule (stable within tolerance
	// for `patience` consecutive rounds) fired before the round limit.
	Converged bool
}

// PushSumEstimate runs push-sum until the leader's estimate changes by less
// than tol for patience consecutive rounds, or maxRounds elapse.
func PushSumEstimate(net dynet.Dynamic, leader graph.NodeID, tol float64, patience, maxRounds int, run Runner) (PushSumResult, error) {
	n := net.N()
	if int(leader) < 0 || int(leader) >= n {
		return PushSumResult{}, fmt.Errorf("counting: leader %d out of range [0,%d)", leader, n)
	}
	if tol <= 0 || patience < 1 || maxRounds < 1 {
		return PushSumResult{}, fmt.Errorf("counting: bad parameters tol=%v patience=%d maxRounds=%d", tol, patience, maxRounds)
	}
	procs := make([]runtime.Process, n)
	var lp *pushSumProc
	for i := range procs {
		p := &pushSumProc{value: 1}
		if graph.NodeID(i) == leader {
			p.weight = 1
			lp = p
		}
		procs[i] = p
	}
	prev := math.NaN()
	stable := 0
	cfg := &runtime.Config{
		Net:       net,
		Procs:     procs,
		CanonKey:  key,
		MaxRounds: maxRounds,
		Stop: func(int) bool {
			est := lp.estimate()
			if !math.IsNaN(prev) && !math.IsNaN(est) && math.Abs(est-prev) < tol {
				stable++
			} else {
				stable = 0
			}
			prev = est
			return stable >= patience
		},
	}
	rounds, err := run(cfg)
	if err != nil {
		return PushSumResult{}, err
	}
	return PushSumResult{
		Estimate:  lp.estimate(),
		Rounds:    rounds,
		Converged: stable >= patience,
	}, nil
}
