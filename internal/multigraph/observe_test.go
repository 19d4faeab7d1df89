package multigraph

import (
	"cmp"
	"errors"
	"slices"
	"testing"
)

// foldedObservation is LeaderObservation(r) folded by sender state into
// indexed entries in ascending state order: the reference for
// ObservationStream.Next. State keys map to indexes through the nodes'
// own histories.
func foldedObservation(t *testing.T, m *Multigraph, r int) []IndexedObsEntry {
	t.Helper()
	obs, err := m.LeaderObservation(r)
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[string]int64)
	for v := 0; v < m.W(); v++ {
		h, err := m.StateOf(v, r)
		if err != nil {
			t.Fatal(err)
		}
		index[h.Key()] = int64(h.Index(2))
	}
	byState := make(map[int64]*IndexedObsEntry)
	for key, n := range obs {
		st, ok := index[key.StateKey]
		if !ok {
			t.Fatalf("round %d: observed state %q is no node's", r, key.StateKey)
		}
		e := byState[st]
		if e == nil {
			e = &IndexedObsEntry{State: st}
			byState[st] = e
		}
		if key.Label == 1 {
			e.Count1 += n
		} else {
			e.Count2 += n
		}
	}
	out := make([]IndexedObsEntry, 0, len(byState))
	for _, e := range byState {
		out = append(out, *e)
	}
	slices.SortFunc(out, func(a, b IndexedObsEntry) int { return cmp.Compare(a.State, b.State) })
	return out
}

// checkStream resets s to m, or starts a new stream of m when s is nil,
// and drains it through m's horizon, or through MaxIndexedRounds where that
// comes first. It checks that every round strictly ascends by State and
// equals LeaderObservation folded by state, and returns the stream,
// positioned after the last round it served.
func checkStream(t *testing.T, name string, s *ObservationStream, m *Multigraph) *ObservationStream {
	t.Helper()
	var err error
	if s == nil {
		s, err = m.NewObservationStream()
	} else {
		err = s.Reset(m)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for r := 0; r < min(m.Horizon(), MaxIndexedRounds); r++ {
		got, err := s.Next()
		if err != nil {
			t.Fatalf("%s round %d: %v", name, r, err)
		}
		for i := 1; i < len(got); i++ {
			if got[i].State <= got[i-1].State {
				t.Fatalf("%s round %d: entry %d has state %d after %d", name, r, i, got[i].State, got[i-1].State)
			}
		}
		if want := foldedObservation(t, m, r); !slices.Equal(got, want) {
			t.Fatalf("%s round %d: stream %v, LeaderObservation folded %v", name, r, got, want)
		}
	}
	return s
}

func TestObservationStreamAscendsAndMatchesLeaderObservation(t *testing.T) {
	// One stream, reset to every multigraph below in turn, must serve each
	// as a new stream does: through growing and shrinking sizes, and after
	// rounds left unread.
	reused := new(ObservationStream)
	for _, w := range []int{0, 1, 2, 7, 60} {
		for h := 0; h <= 8; h++ {
			for seed := int64(0); seed < 4; seed++ {
				m, err := Random(2, w, h, seed)
				if err != nil {
					t.Fatal(err)
				}
				checkStream(t, "Random", nil, m)
				checkStream(t, "Random, reused stream", reused, m)
				if w > 2 {
					// Leave the reused stream part-way through a larger
					// multigraph before the next, smaller one.
					big, err := Random(2, 3*w, h+2, seed)
					if err != nil {
						t.Fatal(err)
					}
					if err := reused.Reset(big); err != nil {
						t.Fatal(err)
					}
					if _, err := reused.Next(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if err := reused.Reset(newOwned(3, 1, 1, []LabelSet{1})); err == nil {
		t.Fatal("Reset accepted k=3")
	}

	// Every node on one history: one group, never split.
	counts := make([]int, HistoryCount(5, 2))
	counts[HistoryCount(5, 2)/2] = 9
	one, err := FromHistoryCounts(2, 5, counts)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, "one history", nil, one)
	checkStream(t, "one history, reused stream", reused, one)

	// Past MaxIndexedRounds the stream refuses the round it cannot index,
	// and keeps refusing it.
	long, err := Random(2, 5, MaxIndexedRounds+1, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*ObservationStream{checkStream(t, "long", nil, long), checkStream(t, "long, reused stream", reused, long)} {
		for i := 0; i < 2; i++ {
			if _, err := s.Next(); !errors.Is(err, ErrIndexCapacity) {
				t.Fatalf("round %d: err %v, want ErrIndexCapacity", MaxIndexedRounds, err)
			}
		}
	}
}
