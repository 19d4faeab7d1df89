package counting

import (
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

func TestIDCountStatic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		net    dynet.Dynamic
		n      int
		maxRds int
	}{
		{"path5", dynet.NewStatic(graph.Path(5)), 5, 20},
		{"complete8", dynet.NewStatic(graph.Complete(8)), 8, 20},
		{"single", dynet.NewStatic(graph.New(1)), 1, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			count, rounds, err := IDCount(tc.net, 0, tc.maxRds, runtime.RunSequential)
			if err != nil {
				t.Fatal(err)
			}
			if count != tc.n {
				t.Fatalf("counted %d, want %d", count, tc.n)
			}
			if rounds > tc.n+1 {
				t.Fatalf("rounds = %d, want <= n+1 = %d", rounds, tc.n+1)
			}
		})
	}
}

func TestIDCountTerminationIsFloodTimePlusOne(t *testing.T) {
	// On a static path with the leader at one end, the last ID arrives at
	// round eccentricity-1; the silent round is the next one, so the
	// counter uses eccentricity+1 rounds.
	net := dynet.NewStatic(graph.Path(6))
	_, rounds, err := IDCount(net, 0, 30, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 6 { // eccentricity 5, +1 silent round
		t.Fatalf("rounds = %d, want 6", rounds)
	}
}

func TestIDCountUnderChurn(t *testing.T) {
	net, err := dynet.NewTInterval(12, 1, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	count, rounds, err := IDCount(net, 0, 40, runtime.RunSharded)
	if err != nil {
		t.Fatal(err)
	}
	if count != 12 {
		t.Fatalf("counted %d, want 12", count)
	}
	if rounds > 13 {
		t.Fatalf("rounds = %d, want <= 13", rounds)
	}
}

func TestIDCountUnderFloodDelayingAdversary(t *testing.T) {
	// Even the maximally-delaying adversary cannot push ID counting past
	// n rounds: growth is guaranteed every round.
	const n = 10
	fd, err := dynet.NewFloodDelaying(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	count, rounds, err := IDCount(fd, 0, 5*n, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("counted %d, want %d", count, n)
	}
	if rounds > n {
		t.Fatalf("rounds = %d, want <= %d", rounds, n)
	}
}

func TestIDCountErrors(t *testing.T) {
	net := dynet.NewStatic(graph.Path(3))
	if _, _, err := IDCount(net, 9, 10, runtime.RunSequential); err == nil {
		t.Fatal("bad leader should error")
	}
	if _, _, err := IDCount(net, 0, 0, runtime.RunSequential); err == nil {
		t.Fatal("maxRounds 0 should error")
	}
	disc := dynet.NewStatic(graph.New(3))
	if _, _, err := IDCount(disc, 0, 10, runtime.RunSequential); err == nil {
		t.Fatal("disconnected network should be rejected")
	}
}

func TestIDCountEnginesAgree(t *testing.T) {
	net := dynet.NewStatic(graph.Path(5))
	ca, ra, err := IDCount(net, 2, 20, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	cb, rb, err := IDCount(net, 2, 20, runtime.RunSharded)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb || ra != rb {
		t.Fatalf("engines disagree: (%d,%d) vs (%d,%d)", ca, ra, cb, rb)
	}
}
