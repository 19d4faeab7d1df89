package kernel

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"anondyn/internal/multigraph"
)

func TestIncrementalMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		mg, err := multigraph.Random(2, int(2+seed%8), 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		inc := NewIncrementalSolver()
		for rounds := 1; rounds <= 5; rounds++ {
			view := mustView(t, mg, rounds)
			got, err := inc.AddRound(view[rounds-1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := SolveCountInterval(view)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed=%d rounds=%d: incremental %v != batch %v", seed, rounds, got, want)
			}
		}
	}
}

func TestIncrementalEmptyUnbounded(t *testing.T) {
	inc := NewIncrementalSolver()
	iv, err := inc.Interval()
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Unbounded {
		t.Fatalf("pre-observation interval = %v", iv)
	}
	if inc.Rounds() != 0 {
		t.Fatalf("Rounds = %d", inc.Rounds())
	}
}

func TestIncrementalDetectsInconsistency(t *testing.T) {
	inc := NewIncrementalSolver()
	if _, err := inc.AddRound(multigraph.Observation{
		{Label: 1, StateKey: multigraph.History{}.Key()}: 1,
	}); err != nil {
		t.Fatal(err)
	}
	iv, err := inc.AddRound(multigraph.Observation{
		{Label: 1, StateKey: multigraph.History{multigraph.SetOf(2)}.Key()}: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Empty {
		t.Fatalf("inconsistent observations gave %v", iv)
	}
}

// TestIncrementalIndexedMatchesString drives one solver through
// AddRoundIndexed (fed by an ObservationStream) and a twin through the
// string-keyed AddRound on the same multigraphs: the intervals must be
// identical at every round.
func TestIncrementalIndexedMatchesString(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		mg, err := multigraph.Random(2, int(2+seed%8), 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := mg.NewObservationStream()
		if err != nil {
			t.Fatal(err)
		}
		fast := NewIncrementalSolver()
		slow := NewIncrementalSolver()
		for r := 0; r < 6; r++ {
			entries, err := stream.Next()
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.AddRoundIndexed(entries)
			if err != nil {
				t.Fatal(err)
			}
			obs, err := mg.LeaderObservation(r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := slow.AddRound(obs)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed=%d round=%d: indexed %v != string %v", seed, r, got, want)
			}
		}
	}
}

// TestAddRoundIndexedIgnoresEntryOrder feeds one observation sequence to
// five solvers: in the stream's first-seen order, in ascending state order,
// reversed, shuffled, and sorted with every entry split into one row per
// label. The intervals agree at every round, and no input is reordered.
func TestAddRoundIndexedIgnoresEntryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for seed := int64(0); seed < 20; seed++ {
		mg, err := multigraph.Random(2, int(3+seed%9), 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := mg.NewObservationStream()
		if err != nil {
			t.Fatal(err)
		}
		var solvers [5]*IncrementalSolver
		for i := range solvers {
			solvers[i] = NewIncrementalSolver()
		}
		for r := 0; r < 6; r++ {
			entries, err := stream.Next()
			if err != nil {
				t.Fatal(err)
			}
			sorted := slices.Clone(entries)
			slices.SortFunc(sorted, func(a, b multigraph.IndexedObsEntry) int {
				return cmp.Compare(a.State, b.State)
			})
			reversed := slices.Clone(sorted)
			slices.Reverse(reversed)
			shuffled := slices.Clone(sorted)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			var split []multigraph.IndexedObsEntry
			for _, e := range sorted {
				split = append(split,
					multigraph.IndexedObsEntry{State: e.State, Count1: e.Count1},
					multigraph.IndexedObsEntry{State: e.State, Count2: e.Count2})
			}
			inputs := [5][]multigraph.IndexedObsEntry{slices.Clone(entries), sorted, reversed, shuffled, split}
			var want Interval
			for i, in := range inputs {
				before := slices.Clone(in)
				got, err := solvers[i].AddRoundIndexed(in)
				if err != nil {
					t.Fatalf("seed=%d round=%d input %d: %v", seed, r, i, err)
				}
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("seed=%d round=%d input %d: interval %v, first-seen order gives %v", seed, r, i, got, want)
				}
				if !slices.Equal(in, before) {
					t.Fatalf("seed=%d round=%d input %d: AddRoundIndexed reordered its input", seed, r, i)
				}
			}
		}
	}
}

// TestIncrementalSpillMode forces the int64-index capacity limit down to 2
// so the sparse layer spills to string keys after a few rounds, and checks
// that the spilled solver still matches the batch solver — and that
// AddRoundIndexed refuses further indexed input once spilled.
func TestIncrementalSpillMode(t *testing.T) {
	prev := solverIndexLimit
	solverIndexLimit = 2
	defer func() { solverIndexLimit = prev }()

	for seed := int64(0); seed < 10; seed++ {
		mg, err := multigraph.Random(2, int(2+seed%6), 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		inc := NewIncrementalSolver()
		for rounds := 1; rounds <= 6; rounds++ {
			view := mustView(t, mg, rounds)
			got, err := inc.AddRound(view[rounds-1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := SolveCountInterval(view)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed=%d rounds=%d: spilled incremental %v != batch %v", seed, rounds, got, want)
			}
		}
		if !inc.strMode {
			t.Fatalf("seed=%d: solver did not spill past limit %d (rounds=%d)", seed, solverIndexLimit, inc.Rounds())
		}
		if _, err := inc.AddRoundIndexed(nil); err == nil {
			t.Fatal("AddRoundIndexed succeeded in string mode; want capacity error")
		}
	}
}

// TestIncrementalOrphanObservation checks the loud-failure contract: an
// observation naming a state the previous rounds prove unpopulated is an
// error, not a silently folded-in constraint.
func TestIncrementalOrphanObservation(t *testing.T) {
	key := func(sets ...multigraph.LabelSet) string {
		return multigraph.History(sets).Key()
	}
	inc := NewIncrementalSolver()
	// Round 0: two nodes on label 1 at the root state.
	if _, err := inc.AddRound(multigraph.Observation{
		{Label: 1, StateKey: key()}: 2,
	}); err != nil {
		t.Fatal(err)
	}
	// Round 1: both nodes moved to state {1}; states {2} and {1,2} are now
	// provably unpopulated, along with their whole subtrees.
	if _, err := inc.AddRound(multigraph.Observation{
		{Label: 1, StateKey: key(multigraph.SetOf(1))}: 2,
	}); err != nil {
		t.Fatal(err)
	}
	// Round 2: an observation from a child of the evicted state {2}.
	_, err := inc.AddRound(multigraph.Observation{
		{Label: 1, StateKey: key(multigraph.SetOf(2), multigraph.SetOf(1))}: 1,
	})
	if err == nil {
		t.Fatal("observation of a provably unpopulated state was accepted")
	}
}

// TestIndexedOrphanLeavesSolverUnchanged names a provably unpopulated state
// between the observable states of a round and past the last of them: each
// round fails, and the solver then takes the round's real observation as a
// twin that never saw the failures does.
func TestIndexedOrphanLeavesSolverUnchanged(t *testing.T) {
	rounds := [][]multigraph.IndexedObsEntry{
		{{State: 0, Count1: 2, Count2: 1}},
		// States {1} and {1,2} are observed, so round 2 can name only
		// their children, indices 0–2 and 6–8.
		{{State: 0, Count1: 1}, {State: 2, Count1: 1, Count2: 1}},
		{{State: 0, Count1: 1}, {State: 6, Count2: 1}},
	}
	solver, twin := NewIncrementalSolver(), NewIncrementalSolver()
	for _, obs := range rounds[:2] {
		for _, s := range []*IncrementalSolver{solver, twin} {
			if _, err := s.AddRoundIndexed(obs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, orphan := range []int64{4, 9} {
		bad := append(slices.Clone(rounds[2]), multigraph.IndexedObsEntry{State: orphan, Count1: 1})
		if _, err := solver.AddRoundIndexed(bad); err == nil {
			t.Fatalf("round 2 naming state %d was accepted", orphan)
		}
	}
	got, err := solver.AddRoundIndexed(rounds[2])
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.AddRoundIndexed(rounds[2])
	if err != nil {
		t.Fatal(err)
	}
	if got != want || solver.Rounds() != 3 {
		t.Fatalf("after the failed rounds: %v in %d rounds, want %v in 3", got, solver.Rounds(), want)
	}
}

// TestAddRoundAllocCeiling locks the steady-state allocation budget of the
// solver's two ingestion paths. The per-round cost is isolated by running a
// short and a long trajectory over precomputed observations and dividing
// the difference, so construction and warm-up are excluded.
func TestAddRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const shortR, longR = 4, 14
	mg, err := multigraph.Random(2, 16, longR, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot both observation encodings up front.
	stream, err := mg.NewObservationStream()
	if err != nil {
		t.Fatal(err)
	}
	indexed := make([][]multigraph.IndexedObsEntry, longR)
	strObs := make([]multigraph.Observation, longR)
	for r := 0; r < longR; r++ {
		entries, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		indexed[r] = append([]multigraph.IndexedObsEntry(nil), entries...)
		if strObs[r], err = mg.LeaderObservation(r); err != nil {
			t.Fatal(err)
		}
	}

	perRound := func(run func(rounds int)) float64 {
		short := testing.AllocsPerRun(20, func() { run(shortR) })
		long := testing.AllocsPerRun(20, func() { run(longR) })
		return (long - short) / float64(longR-shortR)
	}

	got := perRound(func(rounds int) {
		s := NewIncrementalSolver()
		for r := 0; r < rounds; r++ {
			if _, err := s.AddRoundIndexed(indexed[r]); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Steady-state AddRoundIndexed allocates only amortized map growth for
	// the sparse/bulk double buffers; 24/round is ~3x measured headroom.
	if got > 24 {
		t.Fatalf("AddRoundIndexed allocates %.1f/round, want <= 24", got)
	}

	got = perRound(func(rounds int) {
		s := NewIncrementalSolver()
		for r := 0; r < rounds; r++ {
			if _, err := s.AddRound(strObs[r]); err != nil {
				t.Fatal(err)
			}
		}
	})
	// AddRound additionally parses one History per observation class; the
	// observation here has <= 3*16 classes per round.
	if got > 160 {
		t.Fatalf("AddRound allocates %.1f/round, want <= 160", got)
	}
}

func TestIncrementalWorstCaseTrajectory(t *testing.T) {
	// The incremental intervals along a worst-case schedule shrink and
	// collapse exactly when the batch solver says so.
	mg, err := multigraph.FromHistoryCounts(2, 2, []int{0, 0, 1, 0, 0, 1, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncrementalSolver()
	view := mustView(t, mg, 2)
	iv1, err := inc.AddRound(view[0])
	if err != nil {
		t.Fatal(err)
	}
	iv2, err := inc.AddRound(view[1])
	if err != nil {
		t.Fatal(err)
	}
	if iv1.Unique() || iv2.Unique() {
		t.Fatalf("Figure 4 schedule should stay ambiguous: %v %v", iv1, iv2)
	}
	if iv2.Width() > iv1.Width() {
		t.Fatalf("interval widened: %v -> %v", iv1, iv2)
	}
}

// BenchmarkStreamFeedMillion isolates the observation-streaming feed path
// at scale: a million-node schedule's per-round indexed observations,
// precomputed once, replayed into a fresh incremental solver each op. The
// entry lists are history-indexed (their length is bounded by the history
// count, not by |W|), so this prices the solver's ingestion arithmetic
// under million-node counts.
func BenchmarkStreamFeedMillion(b *testing.B) {
	const w, horizon = 1_000_000, 6
	mg, err := multigraph.Random(2, w, horizon, 23)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := mg.NewObservationStream()
	if err != nil {
		b.Fatal(err)
	}
	rounds := make([][]multigraph.IndexedObsEntry, horizon)
	for r := 0; r < horizon; r++ {
		entries, err := stream.Next()
		if err != nil {
			b.Fatal(err)
		}
		rounds[r] = append([]multigraph.IndexedObsEntry(nil), entries...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewIncrementalSolver()
		for _, entries := range rounds {
			if _, err := s.AddRoundIndexed(entries); err != nil {
				b.Fatal(err)
			}
		}
	}
}
