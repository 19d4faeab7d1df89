package kernel

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"anondyn/internal/multigraph"
)

// indexedRounds returns copies of the first `rounds` observations of mg's
// ObservationStream.
func indexedRounds(tb testing.TB, mg *multigraph.Multigraph, rounds int) [][]multigraph.IndexedObsEntry {
	tb.Helper()
	stream, err := mg.NewObservationStream()
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]multigraph.IndexedObsEntry, rounds)
	for r := range out {
		entries, err := stream.Next()
		if err != nil {
			tb.Fatal(err)
		}
		out[r] = slices.Clone(entries)
	}
	return out
}

func TestIncrementalMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		mg, err := multigraph.Random(2, int(2+seed%8), 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		inc := NewIncrementalSolver()
		for r, entries := range indexedRounds(t, mg, 6) {
			got, err := inc.AddRoundIndexed(entries)
			if err != nil {
				t.Fatal(err)
			}
			want, err := SolveCountInterval(mustView(t, mg, r+1))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed=%d rounds=%d: incremental %v != batch %v", seed, r+1, got, want)
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
	// Round 0: one node on label 1 at the root state.
	if _, err := inc.AddRoundIndexed([]multigraph.IndexedObsEntry{{State: 0, Count1: 1}}); err != nil {
		t.Fatal(err)
	}
	// Round 1: a node in state {2} (index 1), which round 0 proves empty.
	iv, err := inc.AddRoundIndexed([]multigraph.IndexedObsEntry{{State: 1, Count1: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Empty {
		t.Fatalf("inconsistent observations gave %v", iv)
	}
}

// TestAddRoundIndexedRejectsUnsortedInput feeds each stream round with two
// or more entries to a solver three ways out of order: reversed, shuffled,
// and split into one row per label, which repeats each state. Each is
// refused without touching the input or the solver, whose rounds and
// interval stay a twin's; the round in the stream's ascending order is
// then accepted as the twin accepts it.
func TestAddRoundIndexedRejectsUnsortedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tried := 0
	for seed := int64(0); seed < 20; seed++ {
		mg, err := multigraph.Random(2, int(3+seed%9), 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		solver, twin := NewIncrementalSolver(), NewIncrementalSolver()
		for r, entries := range indexedRounds(t, mg, 6) {
			if len(entries) >= 2 {
				reversed := slices.Clone(entries)
				slices.Reverse(reversed)
				shuffled := slices.Clone(entries)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				if slices.Equal(shuffled, entries) {
					shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
				}
				var split []multigraph.IndexedObsEntry
				for _, e := range entries {
					split = append(split,
						multigraph.IndexedObsEntry{State: e.State, Count1: e.Count1},
						multigraph.IndexedObsEntry{State: e.State, Count2: e.Count2})
				}
				want, err := twin.Interval()
				if err != nil {
					t.Fatal(err)
				}
				for i, in := range [][]multigraph.IndexedObsEntry{reversed, shuffled, split} {
					before := slices.Clone(in)
					if _, err := solver.AddRoundIndexed(in); err == nil {
						t.Fatalf("seed=%d round=%d input %d: unsorted %v accepted", seed, r, i, in)
					}
					if !slices.Equal(in, before) {
						t.Fatalf("seed=%d round=%d input %d: AddRoundIndexed modified its input", seed, r, i)
					}
					if got, _ := solver.Interval(); got != want || solver.Rounds() != twin.Rounds() {
						t.Fatalf("seed=%d round=%d input %d: %v in %d rounds after the refusal, twin %v in %d",
							seed, r, i, got, solver.Rounds(), want, twin.Rounds())
					}
				}
				tried++
			}
			got, err := solver.AddRoundIndexed(entries)
			if err != nil {
				t.Fatalf("seed=%d round=%d: %v", seed, r, err)
			}
			want, err := twin.AddRoundIndexed(entries)
			if err != nil || got != want {
				t.Fatalf("seed=%d round=%d: %v, twin %v (%v)", seed, r, got, want, err)
			}
		}
	}
	if tried == 0 {
		t.Fatal("no stream round had two entries")
	}
}

// TestIncrementalIndexCapacity checks the solver's one capacity error: it
// takes 39 rounds, the last whose children have exact int64 indices, and
// refuses the 40th with multigraph.ErrIndexCapacity, leaving its interval
// and round count as they were.
func TestIncrementalIndexCapacity(t *testing.T) {
	// One node that hears only label 1: its state is always index 0.
	round := []multigraph.IndexedObsEntry{{State: 0, Count1: 1}}
	inc := NewIncrementalSolver()
	for r := 0; r < multigraph.MaxIndexedRounds; r++ {
		if _, err := inc.AddRoundIndexed(round); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	want, err := inc.Interval()
	if err != nil || !want.Unique() || want.MinSize != 1 {
		t.Fatalf("after %d rounds: %v, %v; want [1,1]", multigraph.MaxIndexedRounds, want, err)
	}
	for _, entries := range [][]multigraph.IndexedObsEntry{round, nil} {
		if _, err := inc.AddRoundIndexed(entries); !errors.Is(err, multigraph.ErrIndexCapacity) {
			t.Fatalf("round %d: err %v, want ErrIndexCapacity", multigraph.MaxIndexedRounds, err)
		}
		if got, err := inc.Interval(); err != nil || got != want || inc.Rounds() != multigraph.MaxIndexedRounds {
			t.Fatalf("after the refused round: %v, %v in %d rounds; want %v in %d", got, err, inc.Rounds(), want, multigraph.MaxIndexedRounds)
		}
	}
}

// TestIndexedOrphanLeavesSolverUnchanged checks the loud-failure contract:
// a round naming a state the previous rounds prove unpopulated fails, and
// leaves the solver as it was. Each failed round names such a state, between
// two observable states or past the last of them, and one also skips a
// populated state, whose eviction would pin c0 to a wrong value.
// Right after each failure the interval equals that of a twin that never
// saw the failures, and the solver then takes the round's real observation
// as the twin does.
func TestIndexedOrphanLeavesSolverUnchanged(t *testing.T) {
	rounds := [][]multigraph.IndexedObsEntry{
		{{State: 0, Count1: 2, Count2: 1}},
		// States {1} and {1,2} are observed and {2} is evicted, so round 2
		// can name only the children of {1} and {1,2}, indices 0–2 and 6–8.
		{{State: 0, Count1: 1}, {State: 2, Count1: 1, Count2: 1}},
		{{State: 0, Count1: 1}, {State: 6, Count2: 1}},
	}
	failed := [][]multigraph.IndexedObsEntry{
		// ({2},{1}) and ({2},{2}), children of the evicted state {2}.
		{{State: 0, Count1: 1}, {State: 3, Count1: 1}, {State: 6, Count2: 1}},
		{{State: 0, Count1: 1}, {State: 4, Count1: 1}, {State: 6, Count2: 1}},
		// Past the last observable state, and without the populated state 0.
		{{State: 6, Count2: 1}, {State: 9, Count1: 1}},
	}
	solver, twin := NewIncrementalSolver(), NewIncrementalSolver()
	for _, obs := range rounds[:2] {
		for _, s := range []*IncrementalSolver{solver, twin} {
			if _, err := s.AddRoundIndexed(obs); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := twin.Interval()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range failed {
		if _, err := solver.AddRoundIndexed(bad); err == nil {
			t.Fatalf("round 2 %v was accepted", bad)
		}
		if got, err := solver.Interval(); err != nil || got != want || solver.Rounds() != 2 {
			t.Fatalf("after the failed round %v: %v, %v in %d rounds; want %v in 2", bad, got, err, solver.Rounds(), want)
		}
	}
	got, err := solver.AddRoundIndexed(rounds[2])
	if err != nil {
		t.Fatal(err)
	}
	want, err = twin.AddRoundIndexed(rounds[2])
	if err != nil {
		t.Fatal(err)
	}
	if got != want || solver.Rounds() != 3 {
		t.Fatalf("after the failed rounds: %v in %d rounds, want %v in 3", got, solver.Rounds(), want)
	}
}

// TestAddRoundAllocCeiling locks the steady-state allocation budget of
// AddRoundIndexed. The per-round cost is isolated by running a short and a
// long trajectory over precomputed observations and dividing the
// difference, so construction and warm-up are excluded.
func TestAddRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const shortR, longR = 4, 14
	mg, err := multigraph.Random(2, 16, longR, 7)
	if err != nil {
		t.Fatal(err)
	}
	indexed := indexedRounds(t, mg, longR)
	run := func(rounds int) {
		s := NewIncrementalSolver()
		for _, entries := range indexed[:rounds] {
			if _, err := s.AddRoundIndexed(entries); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(20, func() { run(shortR) })
	long := testing.AllocsPerRun(20, func() { run(longR) })
	// Steady-state rounds allocate only amortized growth of the sparse
	// double buffer; 24/round is ~3x measured headroom.
	if got := (long - short) / float64(longR-shortR); got > 24 {
		t.Fatalf("AddRoundIndexed allocates %.1f/round, want <= 24", got)
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
	obs := indexedRounds(t, mg, 2)
	iv1, err := inc.AddRoundIndexed(obs[0])
	if err != nil {
		t.Fatal(err)
	}
	iv2, err := inc.AddRoundIndexed(obs[1])
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
	rounds := indexedRounds(b, mg, horizon)
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
