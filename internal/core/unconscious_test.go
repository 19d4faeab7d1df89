package core

import (
	"testing"

	"anondyn/internal/multigraph"
)

func worstCaseExtended(t *testing.T, n int) *multigraph.Multigraph {
	t.Helper()
	m, err := WorstCaseSchedule(n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUnconsciousNeverBeatsConsciousOnPairSchedules(t *testing.T) {
	// On the worst-case schedule with extras parked on the negative
	// support, the truth is the interval minimum well before collapse:
	// GuessMin stabilizes earlier than conscious termination.
	for _, n := range []int{4, 13, 40} {
		m := worstCaseExtended(t, n)
		res, err := UnconsciousCount(m, GuessMin, m.Horizon())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.ConsciousAt != LowerBoundRounds(n) {
			t.Fatalf("n=%d: conscious at %d, want %d", n, res.ConsciousAt, LowerBoundRounds(n))
		}
		if res.CorrectFrom > res.ConsciousAt {
			t.Fatalf("n=%d: guess stabilized at %d, after conscious %d", n, res.CorrectFrom, res.ConsciousAt)
		}
		// Once conscious, the guess is the unique size.
		last := res.Guesses[len(res.Guesses)-1]
		if last != n {
			t.Fatalf("n=%d: final guess %d", n, last)
		}
	}
}

func TestUnconsciousPoliciesDiffer(t *testing.T) {
	// GuessMax on the worst-case schedule is WRONG until the collapse:
	// the adversary's twin of size n+1 is the maximum, so conscious and
	// eventual correctness coincide exactly at the bound.
	m := worstCaseExtended(t, 13)
	minRes, err := UnconsciousCount(m, GuessMin, m.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	maxRes, err := UnconsciousCount(m, GuessMax, m.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	if maxRes.CorrectFrom != maxRes.ConsciousAt {
		t.Fatalf("GuessMax stabilized at %d, conscious %d — the adversary's twin should fool it until collapse",
			maxRes.CorrectFrom, maxRes.ConsciousAt)
	}
	if minRes.CorrectFrom >= maxRes.CorrectFrom {
		t.Fatalf("GuessMin (%d) should stabilize before GuessMax (%d) on this schedule",
			minRes.CorrectFrom, maxRes.CorrectFrom)
	}
}

func TestUnconsciousMidPolicy(t *testing.T) {
	m := worstCaseExtended(t, 4)
	res, err := UnconsciousCount(m, GuessMid, m.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	if res.Guesses[len(res.Guesses)-1] != 4 {
		t.Fatalf("final mid guess = %d", res.Guesses[len(res.Guesses)-1])
	}
}

func TestUnconsciousErrors(t *testing.T) {
	m := worstCaseExtended(t, 4)
	if _, err := UnconsciousCount(m, GuessPolicy(99), m.Horizon()); err == nil {
		t.Fatal("unknown policy should error")
	}
	k3, err := multigraph.Random(3, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnconsciousCount(k3, GuessMin, 2); err == nil {
		t.Fatal("k=3 should error")
	}
	// Truncated run: conscious never fires.
	if _, err := UnconsciousCount(m, GuessMin, 1); err == nil {
		t.Fatal("too-short run should error")
	}
}
