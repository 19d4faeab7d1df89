package runtime

import (
	"errors"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// phaseLogProc records the last round in which the engine called its Send
// and its Receive (-1 before the first call).
type phaseLogProc struct{ sent, received int }

func (p *phaseLogProc) Send(r int) Message         { p.sent = r; return nil }
func (p *phaseLogProc) Receive(r int, _ []Message) { p.received = r }

func newPhaseLogProcs(n int) []Process {
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &phaseLogProc{sent: -1, received: -1}
	}
	return procs
}

// switchNet is connected (a path) before round cut and edgeless from it on.
// It serves both forms, so the sharded engine reads it as CSR.
type switchNet struct {
	cut       int
	conn, off *graph.Graph
	connCSR   *graph.CSR
	offCSR    *graph.CSR
}

func newSwitchNet(n, cut int) *switchNet {
	s := &switchNet{cut: cut, conn: graph.Path(n), off: graph.New(n)}
	s.connCSR, s.offCSR = s.conn.CSR(), s.off.CSR()
	return s
}

func (s *switchNet) N() int { return s.conn.N() }

func (s *switchNet) Snapshot(r int) *graph.Graph {
	if r < s.cut {
		return s.conn
	}
	return s.off
}

func (s *switchNet) SnapshotCSR(r int) *graph.CSR {
	if r < s.cut {
		return s.connCSR
	}
	return s.offCSR
}

// mapOnly hides a network's SnapshotCSR, so the engine reads the CSR of its
// map graphs.
type mapOnly struct{ dynet.Dynamic }

var bothEngines = map[string]Engine{"sequential": RunSequential, "sharded": RunSharded}

// wantConnectivityError checks that err names a disconnected round r.
func wantConnectivityError(t *testing.T, err error, r int) {
	t.Helper()
	var ce *dynet.ConnectivityError
	if !errors.As(err, &ce) || ce.Round != r {
		t.Fatalf("error %v, want a *dynet.ConnectivityError at round %d", err, r)
	}
}

// TestIntervalConnectedStopsAtDisconnectedRound checks that the engines end
// a run at its first disconnected round, before any process sends in it,
// and that without the flag the same network runs to its budget.
func TestIntervalConnectedStopsAtDisconnectedRound(t *testing.T) {
	const n, cut, budget = 6, 3, 8
	for name, run := range bothEngines {
		for _, shape := range []string{"csr", "map"} {
			var net dynet.Dynamic = newSwitchNet(n, cut)
			if shape == "map" {
				net = mapOnly{net}
			}
			procs := newPhaseLogProcs(n)
			rounds, err := run(&Config{Net: net, Procs: procs, MaxRounds: budget, IntervalConnected: true, Shards: 2})
			wantConnectivityError(t, err, cut)
			if rounds != cut {
				t.Errorf("%s/%s: completed %d rounds, want %d", name, shape, rounds, cut)
			}
			for v, p := range procs {
				if got := p.(*phaseLogProc).sent; got != cut-1 {
					t.Errorf("%s/%s: node %d last sent in round %d, want %d", name, shape, v, got, cut-1)
				}
			}

			rounds, err = run(&Config{Net: net, Procs: newPhaseLogProcs(n), MaxRounds: budget, Shards: 2})
			if err != nil || rounds != budget {
				t.Errorf("%s/%s without the check: %d rounds, %v; want %d, nil", name, shape, rounds, err, budget)
			}
		}
	}
}

// TestIntervalConnectedAdaptive checks the graph an adaptive adversary
// picks: the run ends after the round's sends and before any receive.
func TestIntervalConnectedAdaptive(t *testing.T) {
	const n, cut = 5, 2
	for name, run := range bothEngines {
		procs := newPhaseLogProcs(n)
		cfg := &Config{
			Net: dynet.NewStatic(graph.Path(n)), // supplies N only
			Adaptive: func(r int, _ []Message) *graph.Graph {
				if r < cut {
					return graph.Path(n)
				}
				return graph.New(n)
			},
			Procs:             procs,
			MaxRounds:         10,
			IntervalConnected: true,
		}
		rounds, err := run(cfg)
		wantConnectivityError(t, err, cut)
		if rounds != cut {
			t.Errorf("%s: completed %d rounds, want %d", name, rounds, cut)
		}
		for v, p := range procs {
			if lp := p.(*phaseLogProc); lp.sent != cut || lp.received != cut-1 {
				t.Errorf("%s: node %d last sent in round %d and received in %d, want %d and %d",
					name, v, lp.sent, lp.received, cut, cut-1)
			}
		}
	}
}
