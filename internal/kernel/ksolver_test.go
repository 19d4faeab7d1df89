package kernel

import (
	"errors"
	"testing"

	"anondyn/internal/multigraph"
)

func TestEnumerateSizesMatchesIntervalK2(t *testing.T) {
	// The general-k enumerator and the k=2 interval solver must agree on
	// the exact set of consistent sizes, across random small instances.
	for seed := int64(0); seed < 15; seed++ {
		mg, err := multigraph.Random(2, int(2+seed%4), 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		for rounds := 1; rounds <= 2; rounds++ {
			view := mustView(t, mg, rounds)
			iv, err := SolveCountInterval(view)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for n := iv.MinSize; !iv.Empty && n <= iv.MaxSize; n++ {
				want = append(want, n)
			}
			got, err := EnumerateSizes(view, 2, EnumLimits{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed=%d rounds=%d: enum %v vs interval %v", seed, rounds, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed=%d rounds=%d: enum %v vs interval %v", seed, rounds, got, want)
				}
			}
		}
	}
}

func TestEnumerateSizesK3ContainsTruth(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		mg, err := multigraph.Random(3, 3, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		view, err := mg.LeaderView(2)
		if err != nil {
			t.Fatal(err)
		}
		sizes, err := EnumerateSizes(view, 3, EnumLimits{})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range sizes {
			if n == mg.W() {
				found = true
			}
		}
		if !found {
			t.Fatalf("seed=%d: true size %d not among %v", seed, mg.W(), sizes)
		}
	}
}

func TestEnumerateSizesK3MoreAmbiguousThanK2(t *testing.T) {
	// The Figure 3 observation pattern, lifted to k=3: every node shows
	// all three labels at round 0. The k=3 kernel has dimension 4, so the
	// consistent-size set must be at least as wide as k=2's.
	mg, err := multigraph.New(3, [][]multigraph.LabelSet{
		{multigraph.SetOf(1, 2, 3)},
		{multigraph.SetOf(1, 2, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	view, err := mg.LeaderView(1)
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := EnumerateSizes(view, 3, EnumLimits{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 nodes on {1,2,3} produce R_1=R_2=R_3=2; consistent sizes include
	// 2 ({1,2,3}x2), up to 6 ({1}x2,{2}x2,{3}x2).
	if len(sizes) < 3 {
		t.Fatalf("k=3 ambiguity too small: %v", sizes)
	}
	if sizes[0] != 2 || sizes[len(sizes)-1] != 6 {
		t.Fatalf("sizes = %v, want span [2..6]", sizes)
	}
}

func TestEnumerateSizesStarUnique(t *testing.T) {
	// All nodes on {1}: unique immediately, for any k.
	for k := 1; k <= 3; k++ {
		labels := make([][]multigraph.LabelSet, 4)
		for v := range labels {
			labels[v] = []multigraph.LabelSet{multigraph.SetOf(1)}
		}
		mg, err := multigraph.New(k, labels)
		if err != nil {
			t.Fatal(err)
		}
		view, err := mg.LeaderView(1)
		if err != nil {
			t.Fatal(err)
		}
		sizes, err := EnumerateSizes(view, k, EnumLimits{})
		if err != nil {
			t.Fatal(err)
		}
		if len(sizes) != 1 || sizes[0] != 4 {
			t.Fatalf("k=%d: sizes = %v, want [4]", k, sizes)
		}
	}
}

func TestEnumerateSizesBudget(t *testing.T) {
	mg, err := multigraph.Random(2, 8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	view, err := mg.LeaderView(3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = EnumerateSizes(view, 2, EnumLimits{MaxConfigs: 5})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
}

func TestEnumerateSizesErrors(t *testing.T) {
	if _, err := EnumerateSizes(nil, 2, EnumLimits{}); err == nil {
		t.Fatal("empty view should error")
	}
	mg, err := multigraph.Random(2, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	view, err := mg.LeaderView(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EnumerateSizes(view, 0, EnumLimits{}); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestEnumerateSizesInconsistentView(t *testing.T) {
	// Round 1 references a state nobody could occupy.
	bad := multigraph.LeaderView{
		{
			{Label: 1, StateKey: multigraph.History{}.Key()}: 1,
		},
		{
			{Label: 1, StateKey: multigraph.History{multigraph.SetOf(2)}.Key()}: 1,
		},
	}
	sizes, err := EnumerateSizes(bad, 2, EnumLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 0 {
		t.Fatalf("inconsistent view gave sizes %v", sizes)
	}
}

// The enumerator witnesses Lemma 5 independently: for the worst-case pair,
// both n and n+1 appear among the enumerated sizes of the shared view.
func TestEnumerateSizesSeesPair(t *testing.T) {
	mg, err := multigraph.FromHistoryCounts(2, 2, []int{0, 0, 1, 0, 0, 1, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	view, err := mg.LeaderView(2)
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := EnumerateSizes(view, 2, EnumLimits{})
	if err != nil {
		t.Fatal(err)
	}
	has4, has5 := false, false
	for _, n := range sizes {
		if n == 4 {
			has4 = true
		}
		if n == 5 {
			has5 = true
		}
	}
	if !has4 || !has5 {
		t.Fatalf("sizes %v missing the Figure 4 pair {4,5}", sizes)
	}
}
