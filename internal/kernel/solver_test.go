package kernel

import (
	"math/big"
	"testing"

	"anondyn/internal/multigraph"
)

func mustMG(t *testing.T, labels [][]multigraph.LabelSet) *multigraph.Multigraph {
	t.Helper()
	m, err := multigraph.New(2, labels)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustView(t *testing.T, m *multigraph.Multigraph, rounds int) multigraph.LeaderView {
	t.Helper()
	v, err := m.LeaderView(rounds)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSolveEmptyViewUnbounded(t *testing.T) {
	iv, err := SolveCountInterval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Unbounded || iv.MinSize != 0 {
		t.Fatalf("empty view interval = %v", iv)
	}
	if iv.Unique() {
		t.Fatal("unbounded interval cannot be unique")
	}
	if iv.Empty || iv.String() != "[0,∞)" {
		t.Fatalf("empty view interval = %v, want every size [0,∞)", iv)
	}
}

func TestSolveFigure3(t *testing.T) {
	// Figure 3's leader state at round 0: two edges labeled 1, two labeled
	// 2, all from ⊥-state nodes. Consistent sizes are 2, 3, 4.
	m := mustMG(t, [][]multigraph.LabelSet{
		{multigraph.SetOf(1, 2)},
		{multigraph.SetOf(1, 2)},
	})
	iv, err := SolveCountInterval(mustView(t, m, 1))
	if err != nil {
		t.Fatal(err)
	}
	if iv.MinSize != 2 || iv.MaxSize != 4 {
		t.Fatalf("interval = %v, want [2,4]", iv)
	}
	if iv.Unbounded || iv.Empty || iv.Width() != 3 {
		t.Fatalf("interval = %v, want the 3 sizes 2, 3, 4", iv)
	}
}

func TestSolveStarLikeUniqueImmediately(t *testing.T) {
	// All nodes on label {1} only: |(2,⊥)| = 0 forces c0 = 0 and pins the
	// count after a single round.
	m := mustMG(t, [][]multigraph.LabelSet{
		{multigraph.SetOf(1)},
		{multigraph.SetOf(1)},
		{multigraph.SetOf(1)},
	})
	iv, err := SolveCountInterval(mustView(t, m, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Unique() || iv.MinSize != 3 {
		t.Fatalf("interval = %v, want unique 3", iv)
	}
}

func TestSolveTrueSizeAlwaysConsistent(t *testing.T) {
	// Property over random multigraphs: the true size is always inside the
	// computed interval, and the interval shrinks (weakly) with more
	// rounds.
	for seed := int64(0); seed < 30; seed++ {
		mg, err := multigraph.Random(2, int(3+seed%6), 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		prevWidth := int(^uint(0) >> 1)
		for rounds := 1; rounds <= 4; rounds++ {
			iv, err := SolveCountInterval(mustView(t, mg, rounds))
			if err != nil {
				t.Fatal(err)
			}
			if iv.Empty || iv.Unbounded {
				t.Fatalf("seed=%d rounds=%d: interval = %v", seed, rounds, iv)
			}
			if mg.W() < iv.MinSize || mg.W() > iv.MaxSize {
				t.Fatalf("seed=%d rounds=%d: true size %d outside %v", seed, rounds, mg.W(), iv)
			}
			if iv.Width() > prevWidth {
				t.Fatalf("seed=%d rounds=%d: interval widened: %d > %d", seed, rounds, iv.Width(), prevWidth)
			}
			prevWidth = iv.Width()
		}
	}
}

// Cross-check the structured solver against the dense linear algebra: the
// interval width must equal the number of t with s* + t·k_r non-negative.
func TestSolverMatchesDenseEnumeration(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		mg, err := multigraph.Random(2, 5, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r <= 2; r++ {
			view := mustView(t, mg, r+1)
			iv, err := SolveCountInterval(view)
			if err != nil {
				t.Fatal(err)
			}
			// Dense path: particular solution plus kernel sweep.
			m, err := Matrix(r, 2)
			if err != nil {
				t.Fatal(err)
			}
			obs, err := ObservationVector(view, r, 2)
			if err != nil {
				t.Fatal(err)
			}
			part, ok, err := m.SolveParticular(obs)
			if err != nil || !ok {
				t.Fatalf("seed=%d r=%d: dense solve failed: ok=%v err=%v", seed, r, ok, err)
			}
			kv := ClosedFormKernel(r)
			denseSizes := make(map[int]bool)
			for tt := -200; tt <= 200; tt++ {
				cand := part.Add(kv.Scale(big.NewInt(int64(tt))))
				if cand.NonNegative() {
					denseSizes[int(cand.Sum().Int64())] = true
				}
			}
			if len(denseSizes) != iv.Width() {
				t.Fatalf("seed=%d r=%d: dense found %d sizes, solver interval %v", seed, r, len(denseSizes), iv)
			}
			for n := iv.MinSize; n <= iv.MaxSize; n++ {
				if !denseSizes[n] {
					t.Fatalf("seed=%d r=%d: solver size %d not found densely", seed, r, n)
				}
			}
		}
	}
}

func TestForcedConfigurationRoundTrip(t *testing.T) {
	// For every feasible c0, the reconstructed multigraph reproduces the
	// observed view exactly — the constructive core of Lemma 5.
	for seed := int64(0); seed < 10; seed++ {
		mg, err := multigraph.Random(2, 5, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		view := mustView(t, mg, 2)
		iv, err := SolveCountInterval(view)
		if err != nil {
			t.Fatal(err)
		}
		// The feasible c0 range maps to sizes [MinSize, MaxSize] with
		// n = total - c0; recover the c0 range by trying values.
		found := 0
		for c0 := 0; c0 <= 50; c0++ {
			counts, err := ForcedConfiguration(view, c0)
			if err != nil {
				continue
			}
			found++
			rec, err := multigraph.FromHistoryCounts(2, 2, counts)
			if err != nil {
				t.Fatal(err)
			}
			recView, err := rec.LeaderView(2)
			if err != nil {
				t.Fatal(err)
			}
			if !recView.Equal(view) {
				t.Fatalf("seed=%d c0=%d: reconstructed view differs", seed, c0)
			}
		}
		if found != iv.Width() {
			t.Fatalf("seed=%d: %d feasible c0 values, interval %v", seed, found, iv)
		}
	}
}

func TestForcedConfigurationErrors(t *testing.T) {
	if _, err := ForcedConfiguration(nil, 0); err == nil {
		t.Fatal("empty view should error")
	}
	m := mustMG(t, [][]multigraph.LabelSet{{multigraph.SetOf(1)}})
	view := mustView(t, m, 1)
	if _, err := ForcedConfiguration(view, 5); err == nil {
		t.Fatal("infeasible c0 should error")
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{MinSize: 3, MaxSize: 3}
	if !iv.Unique() || iv.Width() != 1 || iv.String() != "[3,3]" {
		t.Fatalf("interval helpers wrong: %v %d %s", iv.Unique(), iv.Width(), iv)
	}
	empty := Interval{Empty: true}
	if empty.Width() != 0 || empty.String() != "∅" || empty.Unique() {
		t.Fatal("empty interval helpers wrong")
	}
	unb := Interval{Unbounded: true}
	if unb.String() != "[0,∞)" || unb.Unique() {
		t.Fatal("unbounded interval helpers wrong")
	}
}

func TestSolveInconsistentViewEmpty(t *testing.T) {
	// Fabricate an impossible view: round 0 says one node on {1}, round 1
	// claims a node whose state was {2}.
	bad := multigraph.LeaderView{
		{
			{Label: 1, StateKey: multigraph.History{}.Key()}: 1,
		},
		{
			{Label: 1, StateKey: multigraph.History{multigraph.SetOf(2)}.Key()}: 1,
		},
	}
	iv, err := SolveCountInterval(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Empty {
		t.Fatalf("inconsistent view gave %v, want empty", iv)
	}
}
