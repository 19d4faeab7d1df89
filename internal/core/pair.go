package core

import (
	"fmt"
	"math/big"

	"anondyn/internal/kernel"
	"anondyn/internal/multigraph"
)

// Pair is a pair of ℳ(DBL)ₖ multigraphs of sizes n and n+1 whose leader
// views are identical through Rounds completed rounds — the constructive
// witness of Lemma 5, produced by the worst-case adversary (k = 2 in the
// paper; IndistinguishablePairK generalizes the alphabet).
type Pair struct {
	// M has |W| = N, MPrime has |W| = N+1.
	M, MPrime *multigraph.Multigraph
	// N is the size of the smaller multigraph.
	N int
	// Rounds is the number of completed rounds through which the two
	// leader views coincide.
	Rounds int
}

// IndistinguishablePair constructs, for a network of size n, the Lemma 5
// adversarial pair sustained for the requested number of completed rounds
// (1 ≤ rounds ≤ MaxIndistinguishableRounds(n)).
//
// The construction follows the proof: with r = rounds-1, place one node on
// each history in the negative support of the kernel k_r (Σ⁻k_r of them),
// park any surplus nodes on the first negative history, and obtain the
// (n+1)-sized twin by adding k_r — which, by M_r k_r = 0, leaves every
// leader observation unchanged. Both configurations are realizable because
// every entry stays non-negative.
func IndistinguishablePair(n, rounds int) (*Pair, error) {
	return IndistinguishablePairK(n, rounds, 2)
}

// WorstCasePair is IndistinguishablePair at the maximum sustainable number
// of rounds for size n.
func WorstCasePair(n int) (*Pair, error) {
	return IndistinguishablePair(n, MaxIndistinguishableRounds(n))
}

// Verify checks the pair's defining properties: sizes n and n+1, identical
// leader views through Rounds rounds, and — as a sanity check on the
// algebra — that the difference of the two count vectors is exactly the
// kernel vector k_{Rounds-1}.
func (p *Pair) Verify() error {
	if p.M.W() != p.N || p.MPrime.W() != p.N+1 {
		return fmt.Errorf("core: sizes are %d and %d, want %d and %d",
			p.M.W(), p.MPrime.W(), p.N, p.N+1)
	}
	va, err := p.M.LeaderView(p.Rounds)
	if err != nil {
		return fmt.Errorf("core: view of M: %w", err)
	}
	vb, err := p.MPrime.LeaderView(p.Rounds)
	if err != nil {
		return fmt.Errorf("core: view of M': %w", err)
	}
	if !va.Equal(vb) {
		return fmt.Errorf("core: leader views differ within %d rounds", p.Rounds)
	}
	ca, err := p.M.HistoryCounts(p.Rounds)
	if err != nil {
		return err
	}
	cb, err := p.MPrime.HistoryCounts(p.Rounds)
	if err != nil {
		return err
	}
	kv, err := kernel.ClosedFormKernelK(p.Rounds-1, p.M.K())
	if err != nil {
		return err
	}
	for i := range ca {
		if big.NewInt(int64(cb[i]-ca[i])).Cmp(kv[i]) != 0 {
			return fmt.Errorf("core: count difference at history %d is %d, want kernel %s",
				i, cb[i]-ca[i], kv[i])
		}
	}
	return nil
}

// Extend returns a copy of the pair in which both multigraphs run `extra`
// additional rounds with every node on label set {1}. The extension keeps
// both multigraphs legal; the views remain equal through p.Rounds rounds
// and — because the deterministic extension concentrates the kernel
// difference onto histories the new observations separate — become
// distinguishable at round p.Rounds+1. FirstDivergence locates the split.
func (p *Pair) Extend(extra int) (*Pair, error) {
	if extra < 0 {
		return nil, fmt.Errorf("core: negative extension %d", extra)
	}
	m, err := extend(p.M, extra)
	if err != nil {
		return nil, err
	}
	mp, err := extend(p.MPrime, extra)
	if err != nil {
		return nil, err
	}
	return &Pair{M: m, MPrime: mp, N: p.N, Rounds: p.Rounds}, nil
}

// extend runs m for `extra` more rounds with every node on label set {1},
// the extension of both Extend and WorstCaseSchedule.
func extend(m *multigraph.Multigraph, extra int) (*multigraph.Multigraph, error) {
	return m.Extended(extra, multigraph.SetOf(1))
}

// FirstDivergence returns the smallest number of completed rounds at which
// the two leader views differ, or (0, false) if they coincide through both
// horizons' minimum.
func (p *Pair) FirstDivergence() (int, bool) {
	limit := p.M.Horizon()
	if h := p.MPrime.Horizon(); h < limit {
		limit = h
	}
	for rounds := 1; rounds <= limit; rounds++ {
		va, err := p.M.LeaderView(rounds)
		if err != nil {
			return 0, false
		}
		vb, err := p.MPrime.LeaderView(rounds)
		if err != nil {
			return 0, false
		}
		if !va.Equal(vb) {
			return rounds, true
		}
	}
	return 0, false
}
