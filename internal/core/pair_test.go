package core

import (
	"strings"
	"testing"

	"anondyn/internal/kernel"
	"anondyn/internal/multigraph"
)

func TestIndistinguishablePairSmall(t *testing.T) {
	// n=2, 1 round: the Figure 3 situation (sizes 2 and 3 here — the
	// construction parks the surplus on the first negative history).
	p, err := IndistinguishablePair(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if p.M.W() != 2 || p.MPrime.W() != 3 {
		t.Fatalf("sizes = %d, %d", p.M.W(), p.MPrime.W())
	}
}

func TestIndistinguishablePairPaperFigure4(t *testing.T) {
	// n=4, 2 rounds: the Figure 4 regime — sizes 4 and 5 with identical
	// views through round 1 (two completed rounds).
	p, err := IndistinguishablePair(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	va, err := p.M.LeaderView(2)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := p.MPrime.LeaderView(2)
	if err != nil {
		t.Fatal(err)
	}
	if !va.Equal(vb) {
		t.Fatal("Figure 4 pair views differ")
	}
}

func TestIndistinguishablePairErrors(t *testing.T) {
	if _, err := IndistinguishablePair(4, 0); err == nil {
		t.Fatal("rounds=0 should error")
	}
	if _, err := IndistinguishablePair(3, 2); err == nil {
		t.Fatal("n=3 cannot sustain 2 rounds")
	}
	if _, err := IndistinguishablePair(0, 1); err == nil {
		t.Fatal("n=0 cannot sustain any rounds")
	}
}

func TestWorstCasePairSweep(t *testing.T) {
	// For every n up to a few kernel thresholds, the worst-case pair
	// verifies and sustains exactly MaxIndistinguishableRounds(n).
	for n := 1; n <= 45; n++ {
		p, err := WorstCasePair(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p.Rounds != MaxIndistinguishableRounds(n) {
			t.Fatalf("n=%d: pair rounds %d, want %d", n, p.Rounds, MaxIndistinguishableRounds(n))
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestExtendDivergesExactlyAfterBound(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 13, 20, 40} {
		p, err := WorstCasePair(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ext, err := p.Extend(3)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		div, found := ext.FirstDivergence()
		if !found {
			t.Fatalf("n=%d: extended pair never diverges", n)
		}
		if div != p.Rounds+1 {
			t.Fatalf("n=%d: diverged at round %d, want %d", n, div, p.Rounds+1)
		}
	}
}

func TestExtendZeroAndNegative(t *testing.T) {
	p, err := WorstCasePair(4)
	if err != nil {
		t.Fatal(err)
	}
	same, err := p.Extend(0)
	if err != nil {
		t.Fatal(err)
	}
	if same.M.Horizon() != p.M.Horizon() {
		t.Fatal("Extend(0) changed horizon")
	}
	if _, err := p.Extend(-1); err == nil {
		t.Fatal("negative extension should error")
	}
}

func TestFirstDivergenceIdenticalPair(t *testing.T) {
	p, err := WorstCasePair(4)
	if err != nil {
		t.Fatal(err)
	}
	// Unextended pair: views coincide through the whole horizon.
	if div, found := p.FirstDivergence(); found {
		t.Fatalf("unextended pair diverged at %d", div)
	}
}

func TestVerifyCatchesCorruptedPair(t *testing.T) {
	p, err := WorstCasePair(4)
	if err != nil {
		t.Fatal(err)
	}
	// Replace M' with a multigraph of the wrong size.
	bad, err := multigraph.Random(2, 9, p.Rounds, 3)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := &Pair{M: p.M, MPrime: bad, N: p.N, Rounds: p.Rounds}
	if err := corrupt.Verify(); err == nil {
		t.Fatal("Verify accepted a corrupted pair")
	}
	// Wrong size field.
	wrongN := &Pair{M: p.M, MPrime: p.MPrime, N: p.N + 1, Rounds: p.Rounds}
	if err := wrongN.Verify(); err == nil {
		t.Fatal("Verify accepted a mislabeled pair")
	}
}

func TestPairSolverSeesBothSizes(t *testing.T) {
	// The count interval on the worst-case view must contain both n and
	// n+1 — the operational statement of indistinguishability.
	for _, n := range []int{1, 4, 13, 25} {
		p, err := WorstCasePair(n)
		if err != nil {
			t.Fatal(err)
		}
		view, err := p.M.LeaderView(p.Rounds)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := kernel.SolveCountInterval(view)
		if err != nil {
			t.Fatal(err)
		}
		if iv.MinSize > n || iv.MaxSize < n+1 {
			t.Fatalf("n=%d: interval %v excludes the pair", n, iv)
		}
	}
}

// TestVerifyErrorPaths drives each way Verify rejects a pair that is not a
// Lemma 5 pair: sizes in the wrong order, leader views that differ, and a
// round count beyond either schedule.
func TestVerifyErrorPaths(t *testing.T) {
	p, err := WorstCasePair(4)
	if err != nil {
		t.Fatal(err)
	}
	other, err := multigraph.Random(2, p.N+1, p.Rounds, 5)
	if err != nil {
		t.Fatal(err)
	}
	short, err := multigraph.Random(2, p.N+1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pair *Pair
		want string
	}{
		{"swapped sizes", &Pair{M: p.MPrime, MPrime: p.M, N: p.N, Rounds: p.Rounds}, "sizes are 5 and 4"},
		{"views differ", &Pair{M: p.M, MPrime: other, N: p.N, Rounds: p.Rounds}, "leader views differ"},
		{"rounds past M", &Pair{M: p.M, MPrime: p.MPrime, N: p.N, Rounds: p.M.Horizon() + 1}, "view of M:"},
		{"rounds past M'", &Pair{M: p.M, MPrime: short, N: p.N, Rounds: p.Rounds}, "view of M':"},
	} {
		err := tc.pair.Verify()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
