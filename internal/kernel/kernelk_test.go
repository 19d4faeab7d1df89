package kernel

import (
	"math/big"
	"testing"
)

// TestClosedFormKernelKIsKernel is the defining check, via the independent
// structured multiply: M_r · k_r = 0 for every alphabet size k in {2,3,4}
// and every r the dense sizes allow. This is the general-k Lemma 3.
func TestClosedFormKernelKIsKernel(t *testing.T) {
	cases := []struct{ k, maxR int }{{2, 4}, {3, 2}, {4, 1}}
	for _, c := range cases {
		for r := 0; r <= c.maxR; r++ {
			kv, err := ClosedFormKernelK(r, c.k)
			if err != nil {
				t.Fatalf("k=%d r=%d: %v", c.k, r, err)
			}
			prod, err := StructuredMulVec(r, c.k, kv)
			if err != nil {
				t.Fatalf("k=%d r=%d: %v", c.k, r, err)
			}
			for i, x := range prod {
				if x.Sign() != 0 {
					t.Fatalf("k=%d r=%d: (M_r k_r)[%d] = %s, want 0", c.k, r, i, x)
				}
			}
		}
	}
}

// TestClosedFormKernelKMatchesK2 pins the specialization: at k = 2 the
// general construction, as a vector and as signs, must agree entrywise with
// the k = 2 closed form.
func TestClosedFormKernelKMatchesK2(t *testing.T) {
	for r := 0; r <= 5; r++ {
		want := ClosedFormKernel(r)
		got, err := ClosedFormKernelK(r, 2)
		if err != nil {
			t.Fatal(err)
		}
		gotSigns, err := ClosedFormKernelSignsK(r, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(gotSigns) != len(want) {
			t.Fatalf("r=%d: length mismatch", r)
		}
		for i := range want {
			if want[i].Cmp(got[i]) != 0 || want[i].Cmp(big.NewInt(int64(gotSigns[i]))) != 0 {
				t.Fatalf("r=%d entry %d: general-k %s/%d, k=2 closed form %s",
					r, i, got[i], gotSigns[i], want[i])
			}
		}
	}
}

// TestKernelSumsK checks the Lemma-4 sums against literal counts of the sign
// vector, and the k = 2 case against the existing closed forms.
func TestKernelSumsK(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for r := 0; r <= 2; r++ {
			signs, err := ClosedFormKernelSignsK(r, k)
			if err != nil {
				t.Fatal(err)
			}
			neg, pos := 0, 0
			for _, s := range signs {
				if s < 0 {
					neg++
				} else {
					pos++
				}
			}
			wantNeg, err := KernelSumNegativeK(r, k)
			if err != nil {
				t.Fatal(err)
			}
			// Σ⁺ = Σ⁻ + 1: positives exceed negatives by exactly one.
			wantPos := new(big.Int).Add(wantNeg, big.NewInt(1))
			if wantNeg.Cmp(big.NewInt(int64(neg))) != 0 || wantPos.Cmp(big.NewInt(int64(pos))) != 0 {
				t.Errorf("k=%d r=%d: sums (%s,%s), literal counts (%d,%d)", k, r, wantNeg, wantPos, neg, pos)
			}
		}
	}
	for r := 0; r <= 6; r++ {
		neg, err := KernelSumNegativeK(r, 2)
		if err != nil {
			t.Fatal(err)
		}
		if neg.Cmp(KernelSumNegative(r)) != 0 {
			t.Errorf("r=%d: KernelSumNegativeK(·,2) = %s, want %s", r, neg, KernelSumNegative(r))
		}
	}
}

// TestKernelKRejectsBadParams covers validation.
func TestKernelKRejectsBadParams(t *testing.T) {
	if _, err := ClosedFormKernelSignsK(-1, 2); err == nil {
		t.Error("negative round accepted")
	}
	if _, err := ClosedFormKernelSignsK(1, 1); err == nil {
		t.Error("k=1 accepted (single symbol has no kernel)")
	}
	if _, err := KernelSumNegativeK(0, 1); err == nil {
		t.Error("k=1 accepted by kernel sum")
	}
}
