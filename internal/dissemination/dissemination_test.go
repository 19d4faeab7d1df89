package dissemination

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
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
	net, err := dynet.NewTInterval(10, 1, 0.2, 3)
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
	net, err := dynet.NewTInterval(8, 1, 0.3, 11)
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

// TestKeyDependsOnContentOnly checks that key hashes the token list a
// message carries: equal lists built apart key alike, distinct lists key
// apart, and nil and foreign messages key 0.
func TestKeyDependsOnContentOnly(t *testing.T) {
	if key([]Token{3, 1, 2}) != key(append([]Token(nil), 3, 1, 2)) {
		t.Fatal("equal token lists keyed apart")
	}
	seen := map[uint64][]Token{}
	for _, ts := range [][]Token{{}, {0}, {1}, {1, 2}, {2, 1}, {12}, {3, 1, 2}} {
		k := key(ts)
		if prev, dup := seen[k]; dup {
			t.Fatalf("%v and %v share key %#x", prev, ts, k)
		}
		seen[k] = ts
	}
	if key(nil) != 0 || key(42) != 0 {
		t.Fatal("nil or a foreign message has a nonzero key")
	}
}

// inboxLog forwards to its process and records every inbox it is handed.
type inboxLog struct {
	runtime.Process
	inboxes [][]runtime.Message
}

func (l *inboxLog) Receive(r int, msgs []runtime.Message) {
	l.inboxes = append(l.inboxes, slices.Clone(msgs))
	l.Process.Receive(r, msgs)
}

var errNotRun = errors.New("processes taken before the run")

// TestProcessesIgnoreInboxOrder replays every inbox of a real run of both
// process types to fresh processes — in the engine's order, reversed, and
// shuffled twice — and requires equal states after every round: a process
// hears a multiset, so its state must not depend on the engines' order.
func TestProcessesIgnoreInboxOrder(t *testing.T) {
	const n = 9
	net, err := dynet.NewTInterval(n, 1, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, mode := range []Mode{Unlimited, OneTokenPerRound} {
		var procs []runtime.Process
		var logs []*inboxLog
		_, err := Run(net, onePerNode(n), mode, 200, func(cfg *runtime.Config) (int, error) {
			procs = cfg.Procs
			run := *cfg
			run.Procs = make([]runtime.Process, n)
			logs = make([]*inboxLog, n)
			for v, p := range procs {
				logs[v] = &inboxLog{Process: p}
				run.Procs[v] = logs[v]
			}
			return runtime.RunSequential(&run)
		})
		if err != nil {
			t.Fatal(err)
		}
		var trials [4][]runtime.Process
		for i := range trials {
			if _, err := Run(net, onePerNode(n), mode, 200, func(cfg *runtime.Config) (int, error) {
				trials[i] = cfg.Procs
				return 0, errNotRun
			}); !errors.Is(err, errNotRun) {
				t.Fatal(err)
			}
		}
		for r := range logs[0].inboxes {
			for v := range procs {
				for i, trial := range trials {
					trial[v].Send(r)
					inbox := slices.Clone(logs[v].inboxes[r])
					switch i {
					case 1:
						slices.Reverse(inbox)
					case 2, 3:
						rng.Shuffle(len(inbox), func(a, b int) { inbox[a], inbox[b] = inbox[b], inbox[a] })
					}
					trial[v].Receive(r, inbox)
				}
				for i := 1; i < len(trials); i++ {
					if !reflect.DeepEqual(trials[i][v], trials[0][v]) {
						t.Fatalf("mode %d: node %d (%T) reached another state at round %d on a permuted inbox (trial %d)",
							mode, v, procs[v], r, i)
					}
				}
			}
		}
		for v := range procs {
			if !reflect.DeepEqual(trials[0][v], procs[v]) {
				t.Fatalf("mode %d: node %d: replaying the run's inboxes did not reproduce it", mode, v)
			}
		}
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
