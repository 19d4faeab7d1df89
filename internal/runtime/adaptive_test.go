package runtime

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// adaptiveDelayer is the state-aware version of the flood-delaying
// adversary: it inspects the round's broadcasts to find the informed set
// and admits exactly one new node per round. Unlike the precommitted
// dynet.FloodDelaying, it needs no knowledge of the protocol's schedule —
// only of the states, which is exactly the paper's omniscient adversary.
func adaptiveDelayer(n int) func(r int, outbox []Message) *graph.Graph {
	return func(r int, outbox []Message) *graph.Graph {
		informed := make([]graph.NodeID, 0, n)
		uninformed := make([]graph.NodeID, 0, n)
		for v := 0; v < n; v++ {
			if b, ok := outbox[v].(bool); ok && b {
				informed = append(informed, graph.NodeID(v))
			} else {
				uninformed = append(uninformed, graph.NodeID(v))
			}
		}
		g := graph.New(n)
		clique := func(nodes []graph.NodeID) {
			for i := 0; i < len(nodes); i++ {
				for j := i + 1; j < len(nodes); j++ {
					_ = g.AddEdge(nodes[i], nodes[j])
				}
			}
		}
		clique(informed)
		clique(uninformed)
		if len(informed) > 0 && len(uninformed) > 0 {
			_ = g.AddEdge(informed[0], uninformed[0])
		}
		return g
	}
}

func TestAdaptiveAdversaryDelaysFlood(t *testing.T) {
	for name, engine := range map[string]func(*Config) (int, error){
		"sequential": RunSequential,
		"sharded":    RunSharded,
	} {
		t.Run(name, func(t *testing.T) {
			const n = 10
			procs := newFloodProcs(n, 0)
			all := func(int) bool {
				for _, p := range procs {
					if !p.(*floodProc).has {
						return false
					}
				}
				return true
			}
			cfg := &Config{
				Net:       dynet.NewStatic(graph.Complete(n)), // ignored topology, supplies N
				Adaptive:  adaptiveDelayer(n),
				Procs:     procs,
				MaxRounds: 5 * n,
				Stop:      all,
			}
			rounds, err := engine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// One new node per round: n-1 rounds, the maximum any
			// adversary can force with connected snapshots.
			if rounds != n-1 {
				t.Fatalf("flood completed in %d rounds, want %d", rounds, n-1)
			}
		})
	}
}

// wantSnapshotError runs each case's Config on both entry points, two
// shards for RunSharded, and checks that the run stops in round 0 with an
// error naming that round: no panic escapes, and no process is blamed.
func wantSnapshotError(t *testing.T, cases map[string]func() *Config) {
	t.Helper()
	for name, cfg := range cases {
		for engine, run := range bothEngines {
			t.Run(name+"/"+engine, func(t *testing.T) {
				defer func() {
					if rec := recover(); rec != nil {
						t.Fatalf("run panicked: %v", rec)
					}
				}()
				c := cfg()
				c.Shards = 2
				rounds, err := run(c)
				var pe *ProcessPanicError
				switch {
				case err == nil:
					t.Fatal("run accepted the snapshot")
				case errors.As(err, &pe):
					t.Fatalf("error %v blames a process", err)
				case !strings.Contains(err.Error(), "round 0"):
					t.Fatalf("error %q does not name round 0", err)
				case rounds != 0:
					t.Fatalf("completed %d rounds, want 0", rounds)
				}
			})
		}
	}
}

// TestAdaptiveNilGraphErrors checks a nil topology, chosen by an adaptive
// adversary or served by an oblivious network.
func TestAdaptiveNilGraphErrors(t *testing.T) {
	wantSnapshotError(t, map[string]func() *Config{
		"adaptive": func() *Config {
			return &Config{
				Net:       dynet.NewStatic(graph.Path(4)),
				Adaptive:  func(int, []Message) *graph.Graph { return nil },
				Procs:     newFloodProcs(4, 0),
				MaxRounds: 3,
			}
		},
		"oblivious": func() *Config {
			return &Config{
				Net:       dynet.NewFunc(4, func(int) *graph.Graph { return nil }),
				Procs:     newFloodProcs(4, 0),
				MaxRounds: 3,
			}
		},
	})
}

// TestAdaptiveWrongSizeErrors checks 3- and 5-node topologies for 4
// processes, chosen by an adaptive adversary or served by an oblivious
// network.
func TestAdaptiveWrongSizeErrors(t *testing.T) {
	cases := map[string]func() *Config{}
	for _, size := range []int{3, 5} {
		cases[fmt.Sprintf("adaptive-%d", size)] = func() *Config {
			return &Config{
				Net:       dynet.NewStatic(graph.Path(4)),
				Adaptive:  func(int, []Message) *graph.Graph { return graph.Path(size) },
				Procs:     newFloodProcs(4, 0),
				MaxRounds: 3,
			}
		}
		cases[fmt.Sprintf("oblivious-%d", size)] = func() *Config {
			return &Config{
				Net:       dynet.NewFunc(4, func(int) *graph.Graph { return graph.Path(size) }),
				Procs:     newFloodProcs(4, 0),
				MaxRounds: 3,
			}
		}
	}
	wantSnapshotError(t, cases)
}

// TestAdaptiveInPlaceEdit runs adversaries that keep one 4-path and edit it
// in place at round 1, returning the same *graph.Graph every round. The
// engine must deliver the edited topology and check it.
func TestAdaptiveInPlaceEdit(t *testing.T) {
	// edited returns an adversary whose path gets edit at round 1.
	edited := func(edit func(g *graph.Graph) error) func(int, []Message) *graph.Graph {
		g := graph.Path(4)
		return func(r int, _ []Message) *graph.Graph {
			if r == 1 {
				if err := edit(g); err != nil {
					panic(err)
				}
			}
			return g
		}
	}
	for name, run := range bothEngines {
		t.Run("AddEdge/"+name, func(t *testing.T) {
			procs := newTranscriptProcs(4)
			_, err := run(&Config{
				Net:       dynet.NewStatic(graph.Path(4)), // supplies N only
				Adaptive:  edited(func(g *graph.Graph) error { return g.AddEdge(0, 3) }),
				Procs:     procs,
				MaxRounds: 2,
				Shards:    2,
			})
			if err != nil {
				t.Fatal(err)
			}
			in := procs[0].(*transcriptProc).received
			if len(in[0]) != 1 || len(in[1]) != 2 {
				t.Errorf("node 0 inboxes of %d and %d in rounds 0 and 1, want 1 and 2", len(in[0]), len(in[1]))
			}
		})
		t.Run("RemoveEdge/"+name, func(t *testing.T) {
			_, err := run(&Config{
				Net:               dynet.NewStatic(graph.Path(4)),
				Adaptive:          edited(func(g *graph.Graph) error { return g.RemoveEdge(1, 2) }),
				Procs:             newFloodProcs(4, 0),
				MaxRounds:         3,
				IntervalConnected: true,
				Shards:            2,
			})
			wantConnectivityError(t, err, 1)
		})
	}
}

func TestAdaptiveSeesCurrentBroadcasts(t *testing.T) {
	// The adversary must receive the outbox of the round it is shaping.
	var seen [][]Message
	cfg := &Config{
		Net: dynet.NewStatic(graph.Path(2)),
		Adaptive: func(r int, outbox []Message) *graph.Graph {
			cp := append([]Message(nil), outbox...)
			seen = append(seen, cp)
			return graph.Path(2)
		},
		Procs:     newFloodProcs(2, 0),
		MaxRounds: 3,
	}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("adversary consulted %d times", len(seen))
	}
	// Round 0 already shows the flood source broadcasting true.
	if len(seen[0]) != 2 || seen[0][0] != true || seen[0][1] != false {
		t.Fatalf("round 0 outbox = %v", seen[0])
	}
	// By round 1 both nodes broadcast true.
	if seen[1][1] != true {
		t.Fatalf("round 1 outbox = %v", seen[1])
	}
}

func TestAdaptiveRejectsDegreeOracle(t *testing.T) {
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(2)),
		Adaptive:  func(int, []Message) *graph.Graph { return graph.Path(2) },
		Procs:     []Process{&degreeProc{}, &degreeProc{}},
		MaxRounds: 2,
	}
	if _, err := RunSequential(cfg); err == nil {
		t.Fatal("DegreeAware + Adaptive should be rejected")
	}
	if _, err := RunSharded(cfg); err == nil {
		t.Fatal("DegreeAware + Adaptive should be rejected (sharded)")
	}
}
