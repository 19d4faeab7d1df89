package core

import (
	"fmt"
	"math"

	"anondyn/internal/multigraph"
)

// General-k worst-case adversary: the Lemma-5 pair construction on ℳ(DBL)ₖ
// for any alphabet size k >= 2. The k = 2 entry points in pair.go delegate
// here, so the paper's construction is the special case rather than a
// separate code path.

// MaxIndistinguishableRoundsK generalizes MaxIndistinguishableRounds to
// alphabet size k: the largest T with Σ⁻k_{T-1} = (B^T - 1)/2 <= n for
// B = 2^k - 1 symbols, i.e. T(n) = ⌊log_B(2n+1)⌋. Larger alphabets shrink
// the sustainable window — more labels give the leader more observational
// resolution per round — which is why the paper's Ω(log n) bound is stated
// against the weakest k = 2 alphabet. Exact for every int n; k outside
// [2, multigraph.MaxK] returns 0.
func MaxIndistinguishableRoundsK(n, k int) int {
	if n <= 0 || k < 2 || k > multigraph.MaxK {
		return 0
	}
	b := multigraph.SymbolCount(k)
	step := (b - 1) / 2
	t := 0
	s := step // s = (B^(t+1) - 1)/2, the threshold for sustaining t+1 rounds
	for s <= n {
		t++
		if s > (math.MaxInt-step)/b {
			break
		}
		s = b*s + step
	}
	return t
}

// MinSizeForRoundsK is the inverse threshold at alphabet size k: the least
// n sustaining T completed rounds, (B^T - 1)/2, saturating at math.MaxInt.
func MinSizeForRoundsK(t, k int) int {
	if t <= 0 || k < 2 || k > multigraph.MaxK {
		return 0
	}
	b := multigraph.SymbolCount(k)
	step := (b - 1) / 2
	s := step
	for i := 1; i < t; i++ {
		if s > (math.MaxInt-step)/b {
			return math.MaxInt
		}
		s = b*s + step
	}
	return s
}

// IndistinguishablePairK constructs the Lemma-5 adversarial pair on ℳ(DBL)ₖ:
// two multigraphs of sizes n and n+1 over alphabet size k whose leader views
// coincide through the requested completed rounds
// (1 <= rounds <= MaxIndistinguishableRoundsK(n, k)). The count vectors come
// from multigraph.IndistinguishableCounts — one node per negative-sign
// history, surplus parked on the first, twin shifted by the kernel — exactly
// the k = 2 proof with the product-form kernel in place of Lemma 3.
func IndistinguishablePairK(n, rounds, k int) (*Pair, error) {
	if k < 2 || k > multigraph.MaxK {
		return nil, fmt.Errorf("core: alphabet size %d out of range [2,%d]", k, multigraph.MaxK)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("core: rounds must be >= 1, got %d", rounds)
	}
	if maxR := MaxIndistinguishableRoundsK(n, k); rounds > maxR {
		return nil, fmt.Errorf("core: size %d sustains at most %d indistinguishable rounds at k=%d, requested %d",
			n, maxR, k, rounds)
	}
	counts, countsPrime, err := multigraph.IndistinguishableCounts(k, rounds, n)
	if err != nil {
		return nil, err
	}
	m, err := multigraph.FromHistoryCounts(k, rounds, counts)
	if err != nil {
		return nil, fmt.Errorf("core: build M: %w", err)
	}
	mp, err := multigraph.FromHistoryCounts(k, rounds, countsPrime)
	if err != nil {
		return nil, fmt.Errorf("core: build M': %w", err)
	}
	return &Pair{M: m, MPrime: mp, N: n, Rounds: rounds}, nil
}
