package core

import (
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/multigraph"
)

func TestCountOnMultigraphBenignSchedule(t *testing.T) {
	// All nodes on {1}: counted in a single round.
	m, err := multigraph.New(2, [][]multigraph.LabelSet{
		{multigraph.SetOf(1)},
		{multigraph.SetOf(1)},
		{multigraph.SetOf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CountOnMultigraph(m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || res.Rounds != 1 {
		t.Fatalf("result = %+v, want count 3 in 1 round", res)
	}
}

func TestCountOnMultigraphRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		m, err := multigraph.Random(2, int(2+seed%8), 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CountOnMultigraph(m, 8)
		if err != nil {
			// A random schedule may legitimately stay ambiguous for all
			// 8 rounds, but with 8 rounds and ≤ 9 nodes that would defy
			// the bound: Σ⁻k_7 = 3280 >> 9 means ambiguity requires a
			// carefully tuned schedule, so treat failure as unexpected
			// unless the interval is genuinely wide.
			iv, ierr := CountInterval(m, 8)
			if ierr != nil {
				t.Fatal(ierr)
			}
			t.Fatalf("seed=%d: counter failed (%v); residual interval %v", seed, err, iv)
		}
		if res.Count != m.W() {
			t.Fatalf("seed=%d: counted %d, want %d", seed, res.Count, m.W())
		}
	}
}

func TestCountOnMultigraphRejectsK3(t *testing.T) {
	m, err := multigraph.Random(3, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountOnMultigraph(m, 5); err == nil {
		t.Fatal("k=3 should be rejected by the k=2 solver")
	}
}

func TestWorstCaseCountRoundsMatchesTheorem1(t *testing.T) {
	// The measured termination round equals the exact lower bound for
	// every size: the bound is tight and the counter optimal.
	for n := 1; n <= 45; n++ {
		res, err := WorstCaseCountRounds(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Count != n {
			t.Fatalf("n=%d: counted %d", n, res.Count)
		}
		if want := LowerBoundRounds(n); res.Rounds != want {
			t.Fatalf("n=%d: counted in %d rounds, bound says %d", n, res.Rounds, want)
		}
	}
}

func TestWorstCaseCountRoundsErrors(t *testing.T) {
	if _, err := WorstCaseCountRounds(0); err == nil {
		t.Fatal("n=0 should error")
	}
}

func TestChainCountRounds(t *testing.T) {
	for _, tc := range []struct{ n, delay int }{
		{4, 0}, {4, 3}, {13, 5}, {1, 2},
	} {
		res, err := ChainCountRounds(tc.n, tc.delay)
		if err != nil {
			t.Fatalf("n=%d delay=%d: %v", tc.n, tc.delay, err)
		}
		if res.Count != tc.n {
			t.Fatalf("n=%d delay=%d: counted %d", tc.n, tc.delay, res.Count)
		}
		if want := ChainLowerBoundRounds(tc.n, tc.delay); res.Rounds != want {
			t.Fatalf("n=%d delay=%d: %d rounds, want %d", tc.n, tc.delay, res.Rounds, want)
		}
	}
}

func TestChainCountRoundsErrors(t *testing.T) {
	if _, err := ChainCountRounds(0, 1); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := ChainCountRounds(4, -1); err == nil {
		t.Fatal("negative delay should error")
	}
}

func TestCountIntervalWidthOnWorstCase(t *testing.T) {
	// On the unextended worst-case schedule the interval never collapses:
	// at its final round it still contains at least n and n+1.
	p, err := WorstCasePair(13)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := CountInterval(p.M, p.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Unique() {
		t.Fatalf("worst-case interval collapsed early: %v", iv)
	}
}

func TestWorstCaseAdversaryNetwork(t *testing.T) {
	wc, err := WorstCaseAdversary(7)
	if err != nil {
		t.Fatal(err)
	}
	// The network is a valid G(PD)_2: persistent distances 0/1/2 and
	// 1-interval connectivity over the schedule horizon.
	rounds := wc.Schedule.Horizon()
	h, err := dynet.PDClass(wc.Net, wc.Layout.Leader, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if h != 2 {
		t.Fatalf("PD class = %d, want 2", h)
	}
	if err := dynet.VerifyIntervalConnectivity(wc.Net, rounds); err != nil {
		t.Fatal(err)
	}
	if got := len(wc.Layout.V2); got != 7 {
		t.Fatalf("V2 size = %d, want 7", got)
	}
	// Round-tripping the network through FromPD2 recovers the schedule's
	// leader view.
	back, err := multigraph.FromPD2(wc.Net, wc.Layout.Leader, wc.Layout.V1, wc.Layout.V2, rounds)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := back.LeaderView(rounds)
	vb, _ := wc.Schedule.LeaderView(rounds)
	if !va.Equal(vb) {
		t.Fatal("PD2 network does not reproduce the schedule view")
	}
}

func TestWorstCaseAdversaryError(t *testing.T) {
	if _, err := WorstCaseAdversary(0); err == nil {
		t.Fatal("n=0 should error")
	}
}

// TestWorstCaseSchedule pins the one worst-case schedule to its
// definition, the pair's M extended two rounds past the pair's horizon,
// cell for cell, across saturated sizes and the sizes between them; the
// adversary network plays exactly that schedule.
func TestWorstCaseSchedule(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 12, 13, 14, 40, 121, 364} {
		p, err := WorstCasePair(n)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := p.Extend(p.Rounds + 2)
		if err != nil {
			t.Fatal(err)
		}
		want := ext.M
		got, err := WorstCaseSchedule(n)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := WorstCaseAdversary(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*multigraph.Multigraph{got, wc.Schedule} {
			if m.K() != want.K() || m.W() != want.W() || m.Horizon() != want.Horizon() {
				t.Fatalf("n=%d: k=%d |W|=%d horizon %d, want k=%d |W|=%d horizon %d",
					n, m.K(), m.W(), m.Horizon(), want.K(), want.W(), want.Horizon())
			}
			for v := 0; v < want.W(); v++ {
				for r := 0; r < want.Horizon(); r++ {
					a, errA := m.LabelsAt(v, r)
					b, errB := want.LabelsAt(v, r)
					if errA != nil || errB != nil || a != b {
						t.Fatalf("n=%d node %d round %d: %v (%v), want %v (%v)", n, v, r, a, errA, b, errB)
					}
				}
			}
		}
	}
	for _, n := range []int{0, -1} {
		if _, err := WorstCaseSchedule(n); err == nil {
			t.Fatalf("n=%d accepted", n)
		}
	}
}

func TestUncertaintyTrajectory(t *testing.T) {
	p, err := WorstCasePair(13)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := p.Extend(2)
	if err != nil {
		t.Fatal(err)
	}
	traj, err := UncertaintyTrajectory(ext.M, ext.M.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != ext.M.Horizon() {
		t.Fatalf("trajectory length %d", len(traj))
	}
	// Widths weakly decrease and the final interval is the unique truth.
	for i := 1; i < len(traj); i++ {
		if traj[i].Width() > traj[i-1].Width() {
			t.Fatalf("widened at %d: %v -> %v", i, traj[i-1], traj[i])
		}
	}
	last := traj[len(traj)-1]
	if !last.Unique() || last.MinSize != 13 {
		t.Fatalf("final interval %v", last)
	}
	if _, err := UncertaintyTrajectory(ext.M, 0); err == nil {
		t.Fatal("rounds=0 should error")
	}
	if _, err := UncertaintyTrajectory(ext.M, 99); err == nil {
		t.Fatal("rounds beyond horizon should error")
	}
}

// TestUncertaintyTrajectoryPastIndexCapacity runs the trajectory beyond
// multigraph.MaxIndexedRounds, the last round the indexed observation
// stream and the solver take. The interval settles on the true size long
// before that and must stay there to the end.
func TestUncertaintyTrajectoryPastIndexCapacity(t *testing.T) {
	p, err := WorstCasePair(4)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := p.Extend(45)
	if err != nil {
		t.Fatal(err)
	}
	if ext.M.Horizon() <= multigraph.MaxIndexedRounds {
		t.Fatalf("horizon %d does not pass the index capacity %d", ext.M.Horizon(), multigraph.MaxIndexedRounds)
	}
	traj, err := UncertaintyTrajectory(ext.M, ext.M.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	for r := multigraph.MaxIndexedRounds; r < len(traj); r++ {
		if iv := traj[r]; !iv.Unique() || iv.MinSize != 4 {
			t.Fatalf("round %d: interval %v, want [4,4]", r, iv)
		}
	}
	if last := traj[len(traj)-1]; last.MinSize != 4 || last.MaxSize != 4 {
		t.Fatalf("final interval %v, want [4,4]", last)
	}
}
