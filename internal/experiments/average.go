package experiments

import (
	"context"
	"fmt"
	"strings"

	"anondyn/internal/core"
	"anondyn/internal/sweep"
)

// AverageCase contrasts random (fair) schedules with the worst case: the
// mean counting time on random ℳ(DBL)₂ schedules stays small and flat
// while the adversarial time grows as ⌊log₃(2n+1)⌋+1 — and no random
// schedule ever exceeds the worst case, which is also a correctness check
// on the bound (beyond it, Σ⁻k_r > n forces uniqueness for every
// schedule). The random trials are the built-in "figures" sweep campaign,
// so `sweep -spec figures` prints the same distributions.
func AverageCase(ctx context.Context) ([]Row, error) {
	spec, _ := sweep.Builtin("figures")
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	rep, err := sweep.Run(ctx, jobs, sweep.MDBLCount, sweep.Options{})
	if err != nil {
		return nil, fmt.Errorf("%d/%d trials: %w", rep.Executed, len(jobs), err)
	}
	var bad, series, sizes []string
	var gap float64 // between the average and the worst case, at the largest size
	for _, g := range sweep.Aggregate(rep.Results) {
		wc, err := core.WorstCaseCountRounds(g.N)
		if err != nil {
			return nil, err
		}
		worst, bound := wc.Rounds, core.LowerBoundRounds(g.N)
		sizes = append(sizes, fmt.Sprint(g.N))
		series = append(series, fmt.Sprintf("n=%d: mean %.2f p99 %d worst %d",
			g.N, g.Mean, g.P99, worst))
		if worst != bound {
			bad = append(bad, fmt.Sprintf("n=%d: worst %d != bound %d", g.N, worst, bound))
		}
		if g.Max > worst {
			bad = append(bad, fmt.Sprintf("n=%d: random max %d beats the worst case %d", g.N, g.Max, worst))
		}
		if g.Failures > 0 {
			bad = append(bad, fmt.Sprintf("n=%d: %d unresolved trials", g.N, g.Failures))
		}
		gap = float64(worst) - g.Mean
	}
	if gap < 1 {
		bad = append(bad, "no visible gap between average and worst case at the largest size")
	}
	measured := strings.Join(series, "; ")
	if len(bad) > 0 {
		measured = "FAILURES: " + strings.Join(bad, "; ")
	}
	return []Row{{
		ID: "S1", Name: "Study: average vs worst case",
		Params:   fmt.Sprintf("%d random schedules per size, n ∈ {%s}", spec.Trials, strings.Join(sizes, ",")),
		Paper:    "the bound is adversarial: typical schedules resolve much faster, none slower",
		Measured: measured,
		Match:    len(bad) == 0,
	}}, nil
}
