package core

import (
	"testing"

	"anondyn/internal/multigraph"
)

func TestRelayStreamsContents(t *testing.T) {
	m, err := multigraph.New(2, [][]multigraph.LabelSet{
		{multigraph.SetOf(1), multigraph.SetOf(1, 2)},
		{multigraph.SetOf(2), multigraph.SetOf(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := RelayStreams(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	emptyKey := multigraph.History{}.Key()
	if streams[0].States[0][emptyKey] != 1 || streams[1].States[0][emptyKey] != 1 {
		t.Fatalf("round-0 streams wrong: %+v / %+v", streams[0].States[0], streams[1].States[0])
	}
	// Round 1: relay 1 hears node 0 (state [{1}]); relay 2 hears both.
	s1 := multigraph.History{multigraph.SetOf(1)}.Key()
	s2 := multigraph.History{multigraph.SetOf(2)}.Key()
	if streams[0].States[1][s1] != 1 || len(streams[0].States[1]) != 1 {
		t.Fatalf("relay 1 round 1 = %v", streams[0].States[1])
	}
	if streams[1].States[1][s1] != 1 || streams[1].States[1][s2] != 1 {
		t.Fatalf("relay 2 round 1 = %v", streams[1].States[1])
	}
}

func TestRelayStreamsErrors(t *testing.T) {
	k3, err := multigraph.Random(3, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RelayStreams(k3, 1); err == nil {
		t.Fatal("k=3 should error")
	}
	k2, err := multigraph.Random(2, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RelayStreams(k2, 5); err == nil {
		t.Fatal("rounds beyond horizon should error")
	}
}

func TestThreadStreamsReconstructsView(t *testing.T) {
	// On random schedules the threaded view must yield the same
	// consistent-size interval as the ground-truth labeled view.
	for seed := int64(0); seed < 20; seed++ {
		m, err := multigraph.Random(2, int(2+seed%7), 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		streams, err := RelayStreams(m, 4)
		if err != nil {
			t.Fatal(err)
		}
		for rounds := 1; rounds <= 4; rounds++ {
			threaded, _, err := ThreadStreams(streams, rounds)
			if err != nil {
				t.Fatal(err)
			}
			ivAnon, err := countIntervalOfView(threaded)
			if err != nil {
				t.Fatal(err)
			}
			ivTrue, err := CountInterval(m, rounds)
			if err != nil {
				t.Fatal(err)
			}
			if ivAnon != ivTrue {
				t.Fatalf("seed=%d rounds=%d: anonymous interval %v != labeled %v", seed, rounds, ivAnon, ivTrue)
			}
		}
	}
}

func TestThreadStreamsErrors(t *testing.T) {
	if _, _, err := ThreadStreams([2]*RelayStream{nil, nil}, 1); err == nil {
		t.Fatal("nil streams should error")
	}
	s := &RelayStream{States: []map[string]int{{}}}
	if _, _, err := ThreadStreams([2]*RelayStream{s, s}, 5); err == nil {
		t.Fatal("too-short streams should error")
	}
}

func TestAnonymousCountMatchesLabeledOnWorstCase(t *testing.T) {
	// The worst-case schedules are label-symmetric (maximally ambiguous
	// threading), and the anonymous leader still terminates at exactly
	// the bound with the correct count.
	for _, n := range []int{1, 4, 13, 40} {
		m, err := WorstCaseSchedule(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := AnonymousCountRounds(m, m.Horizon())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Count != n {
			t.Fatalf("n=%d: anonymous counter got %d", n, res.Count)
		}
		if want := LowerBoundRounds(n); res.Rounds != want {
			t.Fatalf("n=%d: anonymous counter took %d rounds, labeled bound %d", n, res.Rounds, want)
		}
	}
}

func TestAnonymousThreadingAmbiguityDetected(t *testing.T) {
	// A fully symmetric schedule: both relays see identical histories, so
	// every round's threading is ambiguous.
	m, err := multigraph.New(2, [][]multigraph.LabelSet{
		{multigraph.SetOf(1), multigraph.SetOf(1)},
		{multigraph.SetOf(2), multigraph.SetOf(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := RelayStreams(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, ambiguous, err := ThreadStreams(streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ambiguous {
		t.Fatal("symmetric schedule should be ambiguous to thread")
	}
	// An asymmetric schedule: distinguishable immediately after round 0?
	// Round-0 observations differ when the label multiplicities differ.
	m2, err := multigraph.New(2, [][]multigraph.LabelSet{
		{multigraph.SetOf(1), multigraph.SetOf(1)},
		{multigraph.SetOf(1), multigraph.SetOf(1)},
		{multigraph.SetOf(2), multigraph.SetOf(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	streams2, err := RelayStreams(m2, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, ambiguous2, err := ThreadStreams(streams2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 prefixes (length 0) are vacuously equal, so the first
	// threading step is always "ambiguous"; rounds beyond differ.
	if !ambiguous2 {
		t.Fatal("round-0 threading is always trivially ambiguous")
	}
}

func TestAnonymousCountBenignSchedule(t *testing.T) {
	m, err := multigraph.New(2, [][]multigraph.LabelSet{
		{multigraph.SetOf(1)},
		{multigraph.SetOf(1)},
		{multigraph.SetOf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnonymousCountRounds(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || res.Rounds != 1 {
		t.Fatalf("result = %+v", res)
	}
}
