package experiments

import (
	"context"
	"fmt"
	"strings"

	"anondyn/internal/core"
)

// ConsciousVsUnconscious measures the distinction of [12] on the
// worst-case schedules: an unconscious guesser tracking the interval
// minimum stabilizes on the truth before the conscious counter may
// terminate, while a guesser tracking the maximum is fooled by the
// adversary's size-(n+1) twin until the very collapse round.
func ConsciousVsUnconscious(ctx context.Context) ([]Row, error) {
	var bad []string
	var series []string
	for _, n := range []int{4, 13, 40, 121} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := core.WorstCaseSchedule(n)
		if err != nil {
			return nil, err
		}
		minRes, err := core.UnconsciousCount(m, core.GuessMin, m.Horizon())
		if err != nil {
			return nil, err
		}
		maxRes, err := core.UnconsciousCount(m, core.GuessMax, m.Horizon())
		if err != nil {
			return nil, err
		}
		series = append(series, fmt.Sprintf("n=%d: conscious %d, min-guess stable %d, max-guess stable %d",
			n, minRes.ConsciousAt, minRes.CorrectFrom, maxRes.CorrectFrom))
		if minRes.ConsciousAt != core.LowerBoundRounds(n) {
			bad = append(bad, fmt.Sprintf("n=%d: conscious at %d != bound", n, minRes.ConsciousAt))
		}
		if maxRes.CorrectFrom != maxRes.ConsciousAt {
			bad = append(bad, fmt.Sprintf("n=%d: max-guess stabilized early (%d < %d)", n, maxRes.CorrectFrom, maxRes.ConsciousAt))
		}
		if minRes.CorrectFrom >= maxRes.CorrectFrom {
			bad = append(bad, fmt.Sprintf("n=%d: min-guess (%d) not earlier than max-guess (%d)", n, minRes.CorrectFrom, maxRes.CorrectFrom))
		}
	}
	measured := strings.Join(series, "; ")
	if len(bad) > 0 {
		measured = "FAILURES: " + strings.Join(bad, "; ")
	}
	return []Row{{
		ID: "S2", Name: "Study: conscious vs unconscious counting [12]",
		Params:   "worst-case schedules, guess policies min/max, n ∈ {4,13,40,121}",
		Paper:    "knowing the count and knowing THAT you know it are separated by the adversary",
		Measured: measured,
		Match:    len(bad) == 0,
	}}, nil
}
