package kernel

import (
	"fmt"

	"anondyn/internal/multigraph"
)

// Interval is the set of network sizes |W| consistent with a leader view in
// the ℳ(DBL)₂ family. The consistent sizes always form a contiguous integer
// interval because the solution space of m_r = M_r s is a line in direction
// k_r with Σk_r = 1 (Lemmas 2-4).
type Interval struct {
	// MinSize and MaxSize bound the consistent sizes, inclusive. Valid
	// only when neither Empty nor Unbounded is set.
	MinSize, MaxSize int
	// Empty means no configuration is consistent with the view (the view
	// did not come from a legal execution).
	Empty bool
	// Unbounded means every size >= MinSize is consistent (an empty view
	// constrains nothing beyond MinSize = 0).
	Unbounded bool
}

// Unique reports whether exactly one size is consistent — the condition
// under which the leader may output the count and terminate.
func (iv Interval) Unique() bool {
	return !iv.Empty && !iv.Unbounded && iv.MinSize == iv.MaxSize
}

// Width returns the number of consistent sizes (0 for Empty); it is
// meaningless for Unbounded intervals.
func (iv Interval) Width() int {
	if iv.Empty {
		return 0
	}
	return iv.MaxSize - iv.MinSize + 1
}

// String renders the interval.
func (iv Interval) String() string {
	switch {
	case iv.Empty:
		return "∅"
	case iv.Unbounded:
		return fmt.Sprintf("[%d,∞)", iv.MinSize)
	default:
		return fmt.Sprintf("[%d,%d]", iv.MinSize, iv.MaxSize)
	}
}

// form is a linear function a + b·c0 of the single free parameter c0 (the
// number of nodes whose round-0 label set was {1,2}); b is always ±1, the
// sign pattern of the kernel vector.
type form struct {
	a, b int
}

// SolveCountInterval computes the exact set of network sizes consistent
// with a leader view in ℳ(DBL)₂, in time O(3^t) for a t-round view.
//
// The solver operationalizes Section 4.2: the leader's observations force
// every unknown node-count linearly in one free parameter c0 — the paper's
// one-dimensional kernel — and the non-negativity of the deepest-level
// counts clips c0 to an interval. Each feasible c0 corresponds to a
// distinct total size (Σk_r = 1), so the count is determined exactly when
// the interval collapses to a point; by Theorem 1 that cannot happen before
// round ⌊log₃(2|W|+1)⌋ - 1, and for the adversarial configurations of
// Lemma 5 it happens exactly one round later.
func SolveCountInterval(view multigraph.LeaderView) (Interval, error) {
	solveCalls().Inc()
	t := len(view)
	if t == 0 {
		return Interval{MinSize: 0, Unbounded: true}, nil
	}
	obs := func(round, label int, y multigraph.History) int {
		return view[round][multigraph.ObsKey{Label: label, StateKey: y.Key()}]
	}
	// Level 1: histories of length 1 in canonical order {1}, {2}, {1,2}.
	r1 := obs(0, 1, multigraph.History{})
	r2 := obs(0, 2, multigraph.History{})
	total := r1 + r2 // n = total - c0
	forms := []form{
		{a: r1, b: -1}, // u[{1}]   = R1 - c0
		{a: r2, b: -1}, // u[{2}]   = R2 - c0
		{a: 0, b: +1},  // u[{1,2}] = c0
	}
	for round := 1; round < t; round++ {
		next := make([]form, 3*len(forms))
		for yi, f := range forms {
			y := multigraph.HistoryFromIndex(yi, round, 2)
			o1 := obs(round, 1, y)
			o2 := obs(round, 2, y)
			// Consistency forces c[y] = o1 + o2 - u[y]; the children are
			// then u[y·{1}] = u[y] - o2, u[y·{2}] = u[y] - o1,
			// u[y·{1,2}] = o1 + o2 - u[y].
			next[3*yi+0] = form{a: f.a - o2, b: f.b}
			next[3*yi+1] = form{a: f.a - o1, b: f.b}
			next[3*yi+2] = form{a: o1 + o2 - f.a, b: -f.b}
		}
		forms = next
	}
	// Non-negativity of the deepest-level counts clips c0; all shallower
	// counts are sums of deeper ones and need no separate constraints.
	const unset = int(^uint(0) >> 1) // max int
	lo, hi := 0, unset               // c0 >= 0 holds a priori (it is a count)
	for _, f := range forms {
		if f.b > 0 {
			if c := -f.a; c > lo {
				lo = c
			}
		} else {
			if f.a < hi {
				hi = f.a
			}
		}
	}
	if hi == unset {
		// Cannot happen for t >= 1: the all-{1,2} history has b = ±1 and
		// some descendant chain flips sign, but guard anyway.
		return Interval{}, fmt.Errorf("kernel: no upper constraint on c0 (malformed view)")
	}
	if lo > hi {
		return Interval{Empty: true}, nil
	}
	// n = total - c0 is decreasing in c0.
	return Interval{MinSize: total - hi, MaxSize: total - lo}, nil
}

// ForcedConfiguration materializes the unique node-count vector determined
// by the view and a choice of the free parameter c0: entry i is the number
// of nodes with the length-t history of index i. It errors if c0 is outside
// the feasible interval (some count would go negative).
//
// Together with multigraph.FromHistoryCounts this lets tests reconstruct,
// for every feasible size, an actual multigraph reproducing the observed
// view — the constructive content of Lemma 5.
func ForcedConfiguration(view multigraph.LeaderView, c0 int) ([]int, error) {
	t := len(view)
	if t == 0 {
		return nil, fmt.Errorf("kernel: cannot reconstruct from an empty view")
	}
	obs := func(round, label int, y multigraph.History) int {
		return view[round][multigraph.ObsKey{Label: label, StateKey: y.Key()}]
	}
	r1 := obs(0, 1, multigraph.History{})
	r2 := obs(0, 2, multigraph.History{})
	vals := []int{r1 - c0, r2 - c0, c0}
	for round := 1; round < t; round++ {
		next := make([]int, 3*len(vals))
		for yi, u := range vals {
			y := multigraph.HistoryFromIndex(yi, round, 2)
			o1 := obs(round, 1, y)
			o2 := obs(round, 2, y)
			next[3*yi+0] = u - o2
			next[3*yi+1] = u - o1
			next[3*yi+2] = o1 + o2 - u
		}
		vals = next
	}
	for i, v := range vals {
		if v < 0 {
			return nil, fmt.Errorf("kernel: c0=%d infeasible: count %d for history %d", c0, v, i)
		}
	}
	return vals, nil
}
