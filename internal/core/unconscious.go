package core

import (
	"fmt"

	"anondyn/internal/kernel"
	"anondyn/internal/multigraph"
)

// The conscious/unconscious distinction of Di Luna et al. [12]: a
// *conscious* counting algorithm knows when its output is correct and
// terminates (CountOnMultigraph); an *unconscious* one keeps emitting a
// guess that is eventually forever-correct, without ever being sure.
// Our natural unconscious guess is an endpoint of the leader's interval;
// these functions measure how much earlier the guess stabilizes on the
// truth compared with conscious termination — on worst-case schedules the
// two coincide only at the final collapse, while on typical schedules the
// guess is often correct rounds before the leader can know it.

// GuessPolicy selects the unconscious guess from the current interval.
type GuessPolicy int

const (
	// GuessMin outputs the smallest consistent size.
	GuessMin GuessPolicy = iota + 1
	// GuessMax outputs the largest consistent size.
	GuessMax
	// GuessMid outputs the midpoint of the interval.
	GuessMid
)

func (p GuessPolicy) pick(iv kernel.Interval) (int, error) {
	switch p {
	case GuessMin:
		return iv.MinSize, nil
	case GuessMax:
		return iv.MaxSize, nil
	case GuessMid:
		return (iv.MinSize + iv.MaxSize) / 2, nil
	default:
		return 0, fmt.Errorf("core: unknown guess policy %d", p)
	}
}

// UnconsciousResult compares unconscious guessing with conscious
// termination on one schedule.
type UnconsciousResult struct {
	// CorrectFrom is the first round from which the guess equals the true
	// size at every subsequent examined round (eventual correctness).
	CorrectFrom int
	// ConsciousAt is the round at which the conscious counter terminates.
	ConsciousAt int
	// Guesses records the guess after each round, for inspection.
	Guesses []int
}

// UnconsciousCount runs the guessing leader alongside the conscious one on
// the same schedule.
func UnconsciousCount(m *multigraph.Multigraph, policy GuessPolicy, maxRounds int) (UnconsciousResult, error) {
	if m.K() != 2 {
		return UnconsciousResult{}, fmt.Errorf("core: unconscious counter requires k=2, got %d", m.K())
	}
	limit := maxRounds
	if h := m.Horizon(); h < limit {
		limit = h
	}
	traj, err := UncertaintyTrajectory(m, limit)
	if err != nil {
		return UnconsciousResult{}, err
	}
	res := UnconsciousResult{CorrectFrom: -1, ConsciousAt: -1}
	truth := m.W()
	for i, iv := range traj {
		rounds := i + 1
		if iv.Empty {
			return UnconsciousResult{}, fmt.Errorf("core: inconsistent view at round %d", rounds)
		}
		guess, err := policy.pick(iv)
		if err != nil {
			return UnconsciousResult{}, err
		}
		res.Guesses = append(res.Guesses, guess)
		if guess == truth {
			if res.CorrectFrom == -1 {
				res.CorrectFrom = rounds
			}
		} else {
			res.CorrectFrom = -1 // correctness must be *eventual*, not lucky
		}
		if iv.Unique() && res.ConsciousAt == -1 {
			res.ConsciousAt = rounds
		}
	}
	if res.ConsciousAt == -1 {
		return UnconsciousResult{}, fmt.Errorf("core: conscious counter did not terminate within %d rounds", limit)
	}
	if res.CorrectFrom == -1 {
		return UnconsciousResult{}, fmt.Errorf("core: guess never stabilized on the truth within %d rounds", limit)
	}
	return res, nil
}
