package kernel

import (
	"fmt"
	"math/big"

	"anondyn/internal/linalg"
	"anondyn/internal/multigraph"
)

// General-k closed-form kernel (the ℳ(DBL)ₖ generalization of Lemma 3): the
// sign of a history is the product of its symbol signs, +1 for odd-sized
// label sets and -1 for even-sized ones. Each label j appears in equally
// many odd- and even-sized sets, so every row (j, y) of M_r sums the signs
// of a full symbol extension to zero — M_r k_r = 0 for every k >= 2, with
// k = 2 recovering ClosedFormKernel exactly. StructuredMulVec provides the
// independent verification path used by the tests.

// ClosedFormKernelSignsK returns the general-k kernel of M_r as ±1 signs,
// indexed by history index over length r+1. k = 2 agrees entrywise with
// ClosedFormKernel.
func ClosedFormKernelSignsK(r, k int) ([]int8, error) {
	if r < 0 {
		return nil, fmt.Errorf("kernel: negative round %d", r)
	}
	return multigraph.HistorySigns(r+1, k)
}

// ClosedFormKernelK is ClosedFormKernelSignsK as a big.Int vector, for
// callers doing exact linear algebra against Matrix(r, k).
func ClosedFormKernelK(r, k int) (linalg.Vector, error) {
	signs, err := ClosedFormKernelSignsK(r, k)
	if err != nil {
		return nil, err
	}
	vec := linalg.NewVector(len(signs))
	for i, s := range signs {
		vec[i].SetInt64(int64(s))
	}
	return vec, nil
}

// KernelSumNegativeK returns Σ⁻k_r for alphabet size k: with B = 2^k - 1
// symbols, (B^{r+1} - 1)/2 — the number of processes the adversary needs to
// keep sizes n and n+1 indistinguishable through round r on ℳ(DBL)ₖ. The
// count follows from Σ_h sign(h) = 1: positives exceed negatives by exactly
// one among the B^{r+1} histories.
func KernelSumNegativeK(r, k int) (*big.Int, error) {
	if r < 0 || k < 2 || k > multigraph.MaxK {
		return nil, fmt.Errorf("kernel: kernel sum needs r >= 0 and k in [2,%d], got r=%d k=%d",
			multigraph.MaxK, r, k)
	}
	b := int64(multigraph.SymbolCount(k))
	p := new(big.Int).Exp(big.NewInt(b), big.NewInt(int64(r+1)), nil)
	p.Sub(p, big.NewInt(1))
	return p.Rsh(p, 1), nil
}
