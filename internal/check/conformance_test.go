package check

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// TestFamilyConformanceAcrossEngines is the suite-level conformance gate:
// every adversary family registered in dynet.Families() must (a) satisfy its
// declared machine-checkable properties at several sizes and seeds, and
// (b) drive the order-sensitive trace protocol to identical per-node traces
// on the reference round loop, RunSequential and RunSharded. A family whose
// schedule depends on engine internals — shared rand state, map iteration
// order, goroutine interleaving — fails (b); a family whose declared
// guarantees drift from its construction fails (a).
func TestFamilyConformanceAcrossEngines(t *testing.T) {
	sizes := []int{1, 2, 6, 11}
	seeds := []int64{1, 9, 77}
	const rounds = 14
	engines := []struct {
		name string
		run  runtime.Engine
	}{
		{"reference", referenceRun},
		{"sequential", runtime.SequentialEngine(context.Background())},
		{"sharded", runtime.ShardedEngine(context.Background())},
	}
	for _, fam := range Families() {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			t.Parallel()
			for _, n := range sizes {
				for _, seed := range seeds {
					d, err := fam.Build(n, seed)
					if err != nil {
						t.Fatalf("n=%d seed=%d: %v", n, seed, err)
					}
					if err := dynet.VerifyProperties(d, d.Properties(), rounds); err != nil {
						t.Fatalf("n=%d seed=%d: %v", n, seed, err)
					}
					var ref []string
					var refRounds int
					for _, eng := range engines {
						traces, ran, err := runTraces(d, rounds, eng.run)
						if err != nil {
							t.Fatalf("n=%d seed=%d engine=%s: %v", n, seed, eng.name, err)
						}
						if ref == nil {
							ref, refRounds = traces, ran
							continue
						}
						if ran != refRounds {
							t.Fatalf("n=%d seed=%d engine=%s: ran %d rounds, the reference ran %d",
								n, seed, eng.name, ran, refRounds)
						}
						for v := range traces {
							if traces[v] != ref[v] {
								t.Fatalf("n=%d seed=%d engine=%s: node %d trace %s, reference %s",
									n, seed, eng.name, v, traces[v], ref[v])
							}
						}
					}
				}
			}
		})
	}
}

// Families re-exports dynet.Families for the conformance suite; a wrapper so
// a registry rename surfaces here rather than silently skipping families.
func Families() []dynet.Family { return dynet.Families() }

// TestFamilyOracleReplayReproduces forces a family-construction failure — a
// T-interval builder whose topology drifts mid-window — and verifies the
// replay contract for the new oracles: the reported seed regenerates an
// instance the same broken system fails on, shrinks to the same
// counterexample, and passes against the healthy system.
func TestFamilyOracleReplayReproduces(t *testing.T) {
	broken := func() *System {
		sys := Healthy()
		inner := sys.NewTInterval
		sys.NewTInterval = func(n, window int, p float64, seed int64) (dynet.Dynamic, error) {
			d, err := inner(n, window, p, seed)
			if err != nil || n < 2 {
				return d, err
			}
			return dynet.NewFunc(n, func(r int) *graph.Graph {
				g := d.Snapshot(r)
				if r%2 == 0 {
					return g
				}
				cp := g.Clone()
				if cp.HasEdge(0, 1) {
					_ = cp.RemoveEdge(0, 1)
				} else {
					_ = cp.AddEdge(0, 1)
				}
				return cp
			}), nil
		}
		return sys
	}
	var out strings.Builder
	rep, err := RunWithSystem(context.Background(), Options{
		Seed: 2, Iters: 40, Oracles: []string{"tinterval-window"}, Out: &out,
	}, broken())
	if err != nil {
		t.Fatalf("RunWithSystem: %v", err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("drifting T-interval builder never caught by the tinterval-window oracle")
	}
	f := rep.Failures[0]
	if want := fmt.Sprintf("go run ./cmd/check -oracle tinterval-window -replay %d", f.Seed); f.ReplayCommand() != want {
		t.Errorf("ReplayCommand() = %q, want %q", f.ReplayCommand(), want)
	}
	// The same seed against the same broken system must fail again and
	// shrink to the same counterexample.
	reRep := &Report{}
	again := runOne(mustOracle(t, "tinterval-window"), f.Seed, broken(), 0, reRep, newCheckMetrics())
	if again == nil {
		t.Fatalf("seed %d did not reproduce the failure", f.Seed)
	}
	if again.Instance.String() != f.Instance.String() {
		t.Errorf("replay shrank to %s, original run shrank to %s", again.Instance, f.Instance)
	}
	// Against the healthy system, the same seed passes: Replay exits clean.
	rf, err := Replay("tinterval-window", f.Seed, 0)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rf != nil {
		t.Errorf("healthy replay of seed %d failed: %v", f.Seed, rf.Err)
	}
}

// runTraces runs the order-sensitive trace protocol on net for the given
// number of rounds and returns each node's final folded state.
func runTraces(net dynet.Dynamic, rounds int, run runtime.Engine) ([]string, int, error) {
	procs := newTraceProcs(net.N())
	ran, err := run(&runtime.Config{Net: net, Procs: procs, MaxRounds: rounds, CanonKey: traceKey})
	if err != nil {
		return nil, 0, err
	}
	out := make([]string, len(procs))
	for v, p := range procs {
		tp := p.(*traceProc)
		if len(tp.trace) == 0 {
			return nil, 0, fmt.Errorf("node %d produced no trace", v)
		}
		out[v] = tp.trace[len(tp.trace)-1]
	}
	return out, ran, nil
}
