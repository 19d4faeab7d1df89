package core

import (
	"testing"
)

// TestIndistinguishablePairKVerifies builds the general-k pair across
// alphabet sizes and sustainable round counts and runs the full Verify —
// sizes, identical leader views, count difference equal to the kernel.
func TestIndistinguishablePairKVerifies(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for rounds := 1; rounds <= 2; rounds++ {
			n := MinSizeForRoundsK(rounds, k) + 3
			p, err := IndistinguishablePairK(n, rounds, k)
			if err != nil {
				t.Fatalf("k=%d rounds=%d n=%d: %v", k, rounds, n, err)
			}
			if p.M.K() != k || p.MPrime.K() != k {
				t.Fatalf("k=%d: built alphabet %d/%d", k, p.M.K(), p.MPrime.K())
			}
			if err := p.Verify(); err != nil {
				t.Fatalf("k=%d rounds=%d n=%d: %v", k, rounds, n, err)
			}
		}
	}
}

// TestPairKDivergesAtExactlyRoundsPlusOne: after extending with the
// all-{1} fill, the views must split at exactly Rounds+1 for every k — the
// tightness half of the lower bound, generalized.
func TestPairKDivergesAtExactlyRoundsPlusOne(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		rounds := 2
		if k == 4 {
			rounds = 1
		}
		n := MinSizeForRoundsK(rounds, k) + 1
		p, err := IndistinguishablePairK(n, rounds, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		ext, err := p.Extend(2)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		div, ok := ext.FirstDivergence()
		if !ok || div != rounds+1 {
			t.Errorf("k=%d: divergence at %d (ok=%v), want exactly %d", k, div, ok, rounds+1)
		}
	}
}

// TestMaxIndistinguishableRoundsK pins the threshold algebra: the k = 2
// case must agree with the existing function everywhere, and across k the
// round/size inverses must be consistent.
func TestMaxIndistinguishableRoundsK(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 12, 13, 40, 121, 1000000} {
		if got, want := MaxIndistinguishableRoundsK(n, 2), MaxIndistinguishableRounds(n); got != want {
			t.Errorf("n=%d: k=2 generalization says %d, existing says %d", n, got, want)
		}
	}
	for _, k := range []int{2, 3, 4, 5} {
		for tr := 1; tr <= 4; tr++ {
			threshold := MinSizeForRoundsK(tr, k)
			if got := MaxIndistinguishableRoundsK(threshold, k); got < tr {
				t.Errorf("k=%d: threshold size %d sustains %d rounds, want >= %d", k, threshold, got, tr)
			}
			if threshold > 1 {
				if got := MaxIndistinguishableRoundsK(threshold-1, k); got >= tr {
					t.Errorf("k=%d: size %d below threshold sustains %d rounds, want < %d", k, threshold-1, got, tr)
				}
			}
		}
	}
	// Larger alphabets strictly shrink the window once n is big enough.
	if MaxIndistinguishableRoundsK(121, 3) >= MaxIndistinguishableRoundsK(121, 2) {
		t.Error("k=3 should sustain strictly fewer rounds than k=2 at n=121")
	}
	if MaxIndistinguishableRoundsK(10, 1) != 0 || MaxIndistinguishableRoundsK(10, 99) != 0 {
		t.Error("out-of-range k should report 0 rounds")
	}
}

// TestIndistinguishablePairKRejects covers validation paths.
func TestIndistinguishablePairKRejects(t *testing.T) {
	if _, err := IndistinguishablePairK(5, 1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := IndistinguishablePairK(5, 0, 2); err == nil {
		t.Error("rounds=0 accepted")
	}
	if _, err := IndistinguishablePairK(2, 2, 2); err == nil {
		t.Error("unsustainable rounds accepted (n=2 sustains only 1 round at k=2)")
	}
	n := MinSizeForRoundsK(1, 3)
	if _, err := IndistinguishablePairK(n, MaxIndistinguishableRoundsK(n, 3), 3); err != nil {
		t.Errorf("IndistinguishablePairK at exact threshold: %v", err)
	}
}
