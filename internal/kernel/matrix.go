// Package kernel implements the linear-algebraic machinery of the paper's
// Section 4.2: the coefficient matrices M_r whose non-negative integer
// solutions are exactly the ℳ(DBL)ₖ configurations consistent with a leader
// state, the one-dimensional kernel k_r of M_r for k = 2 (Lemmas 2-3), the
// kernel sums of Lemma 4, and an exact solver that computes the set of
// network sizes consistent with an observed leader view — the optimal
// counting rule whose termination round matches Theorem 1's lower bound.
package kernel

import (
	"fmt"
	"math"
	"math/big"

	"anondyn/internal/linalg"
	"anondyn/internal/multigraph"
)

// Cols returns the number of columns of M_r for alphabet size k: the number
// of node states at round r+1, (2^k - 1)^{r+1} (the paper's 3^{r+1}). Like
// HistoryCount it saturates at math.MaxInt (r >= 39 for k = 2) instead of
// wrapping.
func Cols(r, k int) int {
	return multigraph.HistoryCount(r+1, k)
}

// Rows returns the number of rows of M_r: one per leader connection
// (j, S(v, r')) over rounds r' = 0..r, i.e. k * Σ_{i=0}^{r} (2^k - 1)^i
// (the paper's 2 Σ 3^i). The sum saturates at math.MaxInt instead of
// wrapping at large r.
func Rows(r, k int) int {
	total := 0
	for i := 0; i <= r; i++ {
		h := multigraph.HistoryCount(i, k)
		if h > math.MaxInt/k || total > math.MaxInt-k*h {
			return math.MaxInt
		}
		total += k * h
	}
	return total
}

// RowIndex returns the row of M_r corresponding to the connection
// (label j, state y) introduced at round len(y). Rows are grouped by round,
// within a round by label, within a label by state index — the paper's
// lexicographic ordering (see its Equation 4/5 example).
func RowIndex(r, k int, j int, y multigraph.History) (int, error) {
	if j < 1 || j > k {
		return 0, fmt.Errorf("kernel: label %d out of range [1,%d]", j, k)
	}
	round := len(y)
	if round > r {
		return 0, fmt.Errorf("kernel: state of length %d beyond round %d", round, r)
	}
	offset := 0
	for i := 0; i < round; i++ {
		offset += k * multigraph.HistoryCount(i, k)
	}
	states := multigraph.HistoryCount(round, k)
	return offset + (j-1)*states + y.Index(k), nil
}

// Matrix builds the dense coefficient matrix M_r for alphabet size k.
// Entry ((j, y), h) is 1 iff the full history h extends the state y and has
// label j in its round-len(y) entry — i.e. a node with history h was
// connected to the leader by an edge labeled j at round len(y) while in
// state y. The size is exponential in r; r ≤ 6 at k = 2 stays practical.
func Matrix(r, k int) (*linalg.Matrix, error) {
	if r < 0 {
		return nil, fmt.Errorf("kernel: negative round %d", r)
	}
	if k < 1 || k > multigraph.MaxK {
		return nil, fmt.Errorf("kernel: alphabet size %d out of range [1,%d]", k, multigraph.MaxK)
	}
	rows, cols := Rows(r, k), Cols(r, k)
	m, err := linalg.NewMatrix(rows, cols)
	if err != nil {
		return nil, err
	}
	for c := 0; c < cols; c++ {
		h := multigraph.HistoryFromIndex(c, r+1, k)
		for round := 0; round <= r; round++ {
			y := h.Prefix(round)
			for _, j := range h[round].Labels() {
				ri, err := RowIndex(r, k, j, y)
				if err != nil {
					return nil, err
				}
				m.SetInt64(ri, c, 1)
			}
		}
	}
	return m, nil
}

// ObservationVector converts a leader view into the constant vector m_r of
// the system m_r = M_r s_r: entry (j, y) is |(j, S(v, len(y)) = y)|, the
// number of nodes observed in state y behind an edge labeled j at round
// len(y). The view must cover rounds 0..r.
func ObservationVector(view multigraph.LeaderView, r, k int) (linalg.Vector, error) {
	if len(view) < r+1 {
		return nil, fmt.Errorf("kernel: view covers %d rounds, need %d", len(view), r+1)
	}
	vec := linalg.NewVector(Rows(r, k))
	for round := 0; round <= r; round++ {
		for key, count := range view[round] {
			y, err := historyFromKey(key.StateKey, round)
			if err != nil {
				return nil, err
			}
			ri, err := RowIndex(r, k, key.Label, y)
			if err != nil {
				return nil, err
			}
			vec[ri].SetInt64(int64(count))
		}
	}
	return vec, nil
}

// historyFromKey parses the compact History.Key encoding, validating that
// the history has the expected length.
func historyFromKey(key string, wantLen int) (multigraph.History, error) {
	if key == "" {
		if wantLen != 0 {
			return nil, fmt.Errorf("kernel: empty state key for round %d", wantLen)
		}
		return multigraph.History{}, nil
	}
	var h multigraph.History
	cur := uint64(0)
	digits := 0
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == '.' {
			// Components must be canonical decimals of valid label sets:
			// non-empty, no leading zeros, non-zero value, within range.
			if digits == 0 || cur == 0 || cur > uint64(1)<<multigraph.MaxK-1 {
				return nil, fmt.Errorf("kernel: malformed state key %q", key)
			}
			h = append(h, multigraph.LabelSet(cur))
			cur, digits = 0, 0
			continue
		}
		c := key[i]
		if c < '0' || c > '9' {
			return nil, fmt.Errorf("kernel: malformed state key %q", key)
		}
		if digits > 0 && cur == 0 {
			return nil, fmt.Errorf("kernel: malformed state key %q (leading zero)", key)
		}
		cur = cur*10 + uint64(c-'0')
		digits++
		if digits > 6 {
			return nil, fmt.Errorf("kernel: malformed state key %q (component too long)", key)
		}
	}
	if len(h) != wantLen {
		return nil, fmt.Errorf("kernel: state key %q has length %d, want %d", key, len(h), wantLen)
	}
	return h, nil
}

// TrueSolutionVector returns the ground-truth s_r of a multigraph: node
// counts per full history of length r+1, as a linalg.Vector. By
// construction, Matrix(r,k) * TrueSolutionVector = ObservationVector — the
// identity the whole of Section 4.2 rests on, and checked by property tests.
func TrueSolutionVector(m *multigraph.Multigraph, r int) (linalg.Vector, error) {
	counts, err := m.HistoryCounts(r + 1)
	if err != nil {
		return nil, err
	}
	vec := linalg.NewVector(len(counts))
	for i, c := range counts {
		vec[i].SetInt64(int64(c))
	}
	return vec, nil
}

// ClosedFormKernel returns the paper's kernel vector k_r for the k = 2
// family (Lemma 3): component h is the product over the entries of h of
// +1 for {1} or {2} and -1 for {1,2}; equivalently the recursive
// [k_{r-1} k_{r-1} -k_{r-1}]ᵀ with k_{-1} = 1.
func ClosedFormKernel(r int) linalg.Vector {
	cols := Cols(r, 2)
	vec := linalg.NewVector(cols)
	full := multigraph.SetOf(1, 2)
	for c := 0; c < cols; c++ {
		h := multigraph.HistoryFromIndex(c, r+1, 2)
		sign := int64(1)
		for _, s := range h {
			if s == full {
				sign = -sign
			}
		}
		vec[c].SetInt64(sign)
	}
	return vec
}

// KernelSumNegative returns Σ⁻k_r = (3^{r+1} - 1) / 2, the Lemma 4 quantity:
// the number of processes the adversary needs in order to keep sizes n and
// n+1 indistinguishable through round r.
func KernelSumNegative(r int) *big.Int {
	p := new(big.Int).Exp(big.NewInt(3), big.NewInt(int64(r+1)), nil)
	p.Sub(p, big.NewInt(1))
	return p.Rsh(p, 1)
}

// KernelSumPositive returns Σ⁺k_r = (3^{r+1} + 1) / 2 (Lemma 4).
func KernelSumPositive(r int) *big.Int {
	p := new(big.Int).Exp(big.NewInt(3), big.NewInt(int64(r+1)), nil)
	p.Add(p, big.NewInt(1))
	return p.Rsh(p, 1)
}
