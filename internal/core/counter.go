package core

import (
	"fmt"

	"anondyn/internal/kernel"
	"anondyn/internal/multigraph"
)

// CountResult reports a terminating run of the leader-state counter.
type CountResult struct {
	// Count is the leader's output, |W|.
	Count int
	// Rounds is the number of completed rounds after which the count
	// became uniquely determined.
	Rounds int
}

// CountOnMultigraph runs the optimal leader-state counting algorithm on a
// ℳ(DBL)₂ multigraph: after each round the leader solves its linear system
// (kernel.IncrementalSolver, fed by the multigraph's ObservationStream) and
// terminates as soon as exactly one network size is consistent with its
// view. maxRounds bounds the attempt; the multigraph's schedule is
// consulted for at most min(maxRounds, horizon) rounds. It is Count on a
// new Counter.
//
// On worst-case (Lemma 5) schedules termination happens exactly at round
// MaxIndistinguishableRounds(n)+1 once the schedule diverges; on benign
// schedules (e.g. all nodes on a single label) it can be as early as round
// 1 — the lower bound is about the adversary, not about every network.
func CountOnMultigraph(m *multigraph.Multigraph, maxRounds int) (CountResult, error) {
	return new(Counter).Count(m, maxRounds)
}

// Counter is the leader-state counter with one observation stream and one
// solver that outlive a count: each Count resets both before its first
// round, so a caller that counts many multigraphs (the S1 campaign's jobs)
// allocates only when a multigraph needs more room than any before it.
// The zero value is ready to use. A Counter is not safe for concurrent
// use.
type Counter struct {
	stream multigraph.ObservationStream
	solver kernel.IncrementalSolver
}

// Count runs the counter on m, as CountOnMultigraph does.
func (c *Counter) Count(m *multigraph.Multigraph, maxRounds int) (CountResult, error) {
	if m.K() != 2 {
		return CountResult{}, fmt.Errorf("core: leader-state counter requires k=2, got k=%d", m.K())
	}
	limit := maxRounds
	if h := m.Horizon(); h < limit {
		limit = h
	}
	if err := c.stream.Reset(m); err != nil {
		return CountResult{}, err
	}
	c.solver.Reset()
	for rounds := 1; rounds <= limit; rounds++ {
		entries, err := c.stream.Next()
		if err != nil {
			return CountResult{}, err
		}
		iv, err := c.solver.AddRoundIndexed(entries)
		if err != nil {
			return CountResult{}, err
		}
		if iv.Empty {
			return CountResult{}, fmt.Errorf("core: inconsistent view at round %d", rounds)
		}
		if iv.Unique() {
			return CountResult{Count: iv.MinSize, Rounds: rounds}, nil
		}
	}
	return CountResult{}, fmt.Errorf("core: count not determined within %d rounds", limit)
}

// CountInterval returns the leader's residual uncertainty after the given
// number of completed rounds on m: the interval of consistent sizes.
func CountInterval(m *multigraph.Multigraph, rounds int) (kernel.Interval, error) {
	view, err := m.LeaderView(rounds)
	if err != nil {
		return kernel.Interval{}, err
	}
	return kernel.SolveCountInterval(view)
}

// countIntervalOfView solves a pre-assembled view (used by the anonymous
// leader, whose view is reconstructed by stream threading).
func countIntervalOfView(view multigraph.LeaderView) (kernel.Interval, error) {
	return kernel.SolveCountInterval(view)
}

// UncertaintyTrajectory returns the leader's interval of consistent sizes
// after each of the first `rounds` rounds on m — the raw series behind the
// "watch the interval collapse" narrative, plot-ready. Once the interval is
// unique it is repeated for the remaining rounds without solving them: each
// round only adds constraints, and the true size always satisfies them. So
// the trajectory may run past multigraph.MaxIndexedRounds, the last round
// the solver takes, whenever the count is settled by then.
func UncertaintyTrajectory(m *multigraph.Multigraph, rounds int) ([]kernel.Interval, error) {
	if rounds < 1 || rounds > m.Horizon() {
		return nil, fmt.Errorf("core: rounds %d out of range [1,%d]", rounds, m.Horizon())
	}
	stream, err := m.NewObservationStream()
	if err != nil {
		return nil, err
	}
	solver := kernel.NewIncrementalSolver()
	out := make([]kernel.Interval, 0, rounds)
	for len(out) < rounds {
		if n := len(out); n > 0 && out[n-1].Unique() {
			out = append(out, out[n-1])
			continue
		}
		entries, err := stream.Next()
		if err != nil {
			return nil, err
		}
		iv, err := solver.AddRoundIndexed(entries)
		if err != nil {
			return nil, err
		}
		out = append(out, iv)
	}
	return out, nil
}

// WorstCaseCountRounds measures the exact round at which the leader-state
// counter terminates on WorstCaseSchedule(n). The result is the empirical
// counterpart of Theorem 1: it always equals LowerBoundRounds(n) for n in
// the exactly-saturated sizes, and never beats the bound for any n.
func WorstCaseCountRounds(n int) (CountResult, error) {
	m, err := WorstCaseSchedule(n)
	if err != nil {
		return CountResult{}, err
	}
	res, err := CountOnMultigraph(m, m.Horizon())
	if err != nil {
		return CountResult{}, err
	}
	if res.Count != n {
		return CountResult{}, fmt.Errorf("core: counter returned %d on a size-%d network", res.Count, n)
	}
	return res, nil
}

// ChainCountRounds models the Corollary 1 composition: the 𝒢(PD)₂ core runs
// WorstCaseSchedule(n), but every leader observation is delayed by `delay`
// rounds while it crosses the static chain. It returns the first round at
// which the (delayed) view pins the count — at least delay +
// LowerBoundRounds(n).
func ChainCountRounds(n, delay int) (CountResult, error) {
	if n < 1 {
		return CountResult{}, fmt.Errorf("core: need n >= 1, got %d", n)
	}
	if delay < 0 {
		return CountResult{}, fmt.Errorf("core: negative delay %d", delay)
	}
	m, err := WorstCaseSchedule(n)
	if err != nil {
		return CountResult{}, err
	}
	for rounds := 1; rounds <= m.Horizon()+delay; rounds++ {
		avail := rounds - delay
		if avail < 1 {
			continue
		}
		if avail > m.Horizon() {
			avail = m.Horizon()
		}
		view, err := m.LeaderView(avail)
		if err != nil {
			return CountResult{}, err
		}
		iv, err := kernel.SolveCountInterval(view)
		if err != nil {
			return CountResult{}, err
		}
		if iv.Unique() {
			return CountResult{Count: iv.MinSize, Rounds: rounds}, nil
		}
	}
	return CountResult{}, fmt.Errorf("core: chain count not determined for n=%d delay=%d", n, delay)
}
