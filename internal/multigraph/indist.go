package multigraph

import (
	"fmt"
	"math"
)

// This file holds the combinatorial heart of the general-k ℳ(DBL)ₖ
// indistinguishability construction: the product-form kernel signs and the
// count vectors of the two indistinguishable configurations. The linear
// algebra lives in internal/kernel (which imports this package); the pair
// assembly lives in internal/core.

// symbolSign returns the kernel sign of the symbol with the given index:
// +1 when the label set (index+1 as a bitmask) has odd size, -1 when even.
// For k = 2 this is the paper's Lemma-3 rule (+1 for {1} and {2}, -1 for
// {1,2}); for general k the product of these signs over a history is a
// kernel vector of M_r because every label j appears in as many odd-sized
// sets as even-sized sets — Σ_{S ∋ j} sign(S) = 0 — while Σ_S sign(S) = 1.
func symbolSign(idx int) int8 {
	if LabelSet(idx+1).Size()%2 == 1 {
		return 1
	}
	return -1
}

// HistorySigns returns the sign of every history of the given length over
// alphabet size k, indexed exactly like HistoryFromIndex: entry c is the
// product of the symbol signs along the history with index c. The result is
// the closed-form kernel of the round-(length-1) coefficient matrix for
// every k >= 2, specializing to the signs of kernel.ClosedFormKernel at k = 2.
func HistorySigns(length, k int) ([]int8, error) {
	if k < 2 || k > MaxK {
		return nil, fmt.Errorf("multigraph: kernel signs need alphabet size in [2,%d], got %d", MaxK, k)
	}
	if length < 0 {
		return nil, fmt.Errorf("multigraph: negative history length %d", length)
	}
	total := HistoryCount(length, k)
	if total == math.MaxInt {
		return nil, fmt.Errorf("multigraph: history space for length %d, k=%d overflows", length, k)
	}
	base := SymbolCount(k)
	// Precompute per-symbol signs once; histories then reduce over digits.
	signs := make([]int8, base)
	for s := 0; s < base; s++ {
		signs[s] = symbolSign(s)
	}
	out := make([]int8, total)
	for c := 0; c < total; c++ {
		sign := int8(1)
		for x := c; x > 0; x /= base {
			sign *= signs[x%base]
		}
		out[c] = sign
	}
	return out, nil
}

// IndistinguishableCounts returns the history-count vectors of the Lemma-5
// pair generalized to alphabet size k: two non-negative vectors over the
// histories of length `rounds` whose difference is exactly the kernel
// HistorySigns(rounds, k), with totals n and n+1. Placing one node on every
// negative-sign history ((B^rounds - 1)/2 of them for B = 2^k - 1, surplus
// parked on the first) makes both configurations realizable, and the kernel
// property makes their leader views identical through `rounds` rounds.
func IndistinguishableCounts(k, rounds, n int) (counts, countsPrime []int, err error) {
	if rounds < 1 {
		return nil, nil, fmt.Errorf("multigraph: rounds must be >= 1, got %d", rounds)
	}
	kv, err := HistorySigns(rounds, k)
	if err != nil {
		return nil, nil, err
	}
	counts = make([]int, len(kv))
	placed := 0
	firstNeg := -1
	for i, s := range kv {
		if s < 0 {
			counts[i] = 1
			placed++
			if firstNeg == -1 {
				firstNeg = i
			}
		}
	}
	if firstNeg == -1 {
		// Unreachable for k >= 2, rounds >= 1: {1,2} (index 2) is negative.
		return nil, nil, fmt.Errorf("multigraph: internal: kernel has no negative support")
	}
	if placed > n {
		return nil, nil, fmt.Errorf("multigraph: negative kernel support %d exceeds n=%d (size %d sustains fewer than %d rounds at k=%d)",
			placed, n, n, rounds, k)
	}
	counts[firstNeg] += n - placed
	countsPrime = make([]int, len(kv))
	for i := range counts {
		countsPrime[i] = counts[i] + int(kv[i])
	}
	return counts, countsPrime, nil
}
