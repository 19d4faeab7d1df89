package runtime

import (
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

func TestAdaptiveNilGraphErrors(t *testing.T) {
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(2)),
		Adaptive:  func(int, []Message) *graph.Graph { return nil },
		Procs:     newFloodProcs(2, 0),
		MaxRounds: 3,
	}
	if _, err := RunSequential(cfg); err == nil {
		t.Fatal("nil adaptive graph should error")
	}
	if _, err := RunSharded(cfg); err == nil {
		t.Fatal("nil adaptive graph should error (sharded)")
	}
}

func TestAdaptiveWrongSizeErrors(t *testing.T) {
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(2)),
		Adaptive:  func(int, []Message) *graph.Graph { return graph.Path(3) },
		Procs:     newFloodProcs(2, 0),
		MaxRounds: 3,
	}
	if _, err := RunSequential(cfg); err == nil {
		t.Fatal("wrong-size adaptive graph should error")
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
