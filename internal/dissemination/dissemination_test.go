package dissemination

import (
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

func TestFloodSingleSourceMatchesFloodTime(t *testing.T) {
	// Unlimited-bandwidth dissemination from a single source completes in
	// exactly dynet.FloodTime rounds, for several topologies.
	nets := map[string]dynet.Dynamic{
		"path":     dynet.NewStatic(graph.Path(6)),
		"complete": dynet.NewStatic(graph.Complete(6)),
	}
	star, err := graph.Star(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	nets["star"] = dynet.NewStatic(star)
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			initial, err := SingleSource(net.N(), 0, 3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(net, initial, Unlimited, 100, runtime.RunSequential)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dynet.FloodTime(net, 0, 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != want {
				t.Fatalf("dissemination took %d rounds, flood time is %d", res.Rounds, want)
			}
			if res.Tokens != 3 {
				t.Fatalf("tokens = %d, want 3", res.Tokens)
			}
		})
	}
}

func TestFloodAllToAllWithinDynamicDiameter(t *testing.T) {
	net, err := dynet.NewRandomChurn(10, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, onePerNode(10), Unlimited, 100, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dynet.DynamicDiameter(net, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > d {
		t.Fatalf("all-to-all flooding took %d rounds, dynamic diameter is %d", res.Rounds, d)
	}
}

func TestOneTokenPerRoundSlower(t *testing.T) {
	// On a static path with k tokens at one end, the restricted protocol
	// needs more rounds than unlimited flooding.
	net := dynet.NewStatic(graph.Path(5))
	const k = 6
	initial, err := SingleSource(5, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	unl, err := Run(net, initial, Unlimited, 1000, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	lim, err := Run(net, initial, OneTokenPerRound, 1000, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if lim.Rounds <= unl.Rounds {
		t.Fatalf("restricted (%d rounds) not slower than unlimited (%d rounds)", lim.Rounds, unl.Rounds)
	}
}

func TestOneTokenPerRoundCompletes(t *testing.T) {
	net, err := dynet.NewRandomChurn(8, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(net, onePerNode(8), OneTokenPerRound, 2000, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tokens != 8 {
		t.Fatalf("tokens = %d, want 8", res.Tokens)
	}
}

func TestRunEnginesAgree(t *testing.T) {
	net := dynet.NewStatic(graph.Path(6))
	initial, err := SingleSource(6, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(net, initial, Unlimited, 100, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, initial, Unlimited, 100, runtime.RunSharded)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("engines disagree: %+v vs %+v", a, b)
	}
}

func TestRunErrors(t *testing.T) {
	net := dynet.NewStatic(graph.Path(3))
	if _, err := Run(net, make([][]Token, 2), Unlimited, 10, runtime.RunSequential); err == nil {
		t.Fatal("wrong assignment length should error")
	}
	initial := make([][]Token, 3)
	if _, err := Run(net, initial, Unlimited, 10, runtime.RunSequential); err == nil {
		t.Fatal("no tokens should error")
	}
	good, err := SingleSource(3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(net, good, Mode(99), 10, runtime.RunSequential); err == nil {
		t.Fatal("unknown mode should error")
	}
	// Disconnected network never completes.
	disc := dynet.NewStatic(graph.New(3))
	if _, err := Run(disc, good, Unlimited, 5, runtime.RunSequential); err == nil {
		t.Fatal("incomplete dissemination should error")
	}
}

func TestRunAlreadyComplete(t *testing.T) {
	net := dynet.NewStatic(graph.Path(2))
	initial := [][]Token{{1}, {1}}
	res, err := Run(net, initial, Unlimited, 10, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Fatalf("already-complete dissemination took %d rounds", res.Rounds)
	}
}

func TestSingleSourceErrors(t *testing.T) {
	if _, err := SingleSource(3, 5, 1); err == nil {
		t.Fatal("bad source should error")
	}
	if _, err := SingleSource(3, 0, 0); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestCanonEncoding(t *testing.T) {
	if got := canon([]Token{3, 1, 2}); got != "t:3,1,2" {
		t.Fatalf("canon = %q", got)
	}
	if got := canon(nil); got != "" {
		t.Fatalf("canon(nil) = %q", got)
	}
	if canon(42) == "" {
		t.Fatal("fallback canon empty")
	}
}

func TestTokenSetSorted(t *testing.T) {
	s := make(tokenSet)
	for _, v := range []Token{5, 1, 3} {
		s.add(v)
	}
	got := s.sorted()
	want := []Token{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v", got)
		}
	}
}

// onePerNode assigns token i to node i: the all-to-all k = n instance.
func onePerNode(n int) [][]Token {
	initial := make([][]Token, n)
	for i := range initial {
		initial[i] = []Token{Token(i)}
	}
	return initial
}
