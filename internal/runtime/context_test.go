package runtime

import (
	"context"
	"errors"
	"testing"
	"time"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// hookProc wraps a flooding process with per-call hooks, used to trigger
// cancellations, sleeps, and panics from inside protocol code.
type hookProc struct {
	inner     Process
	onSend    func(r int)
	onReceive func(r int)
}

func (h *hookProc) Send(r int) Message {
	if h.onSend != nil {
		h.onSend(r)
	}
	return h.inner.Send(r)
}

func (h *hookProc) Receive(r int, msgs []Message) {
	if h.onReceive != nil {
		h.onReceive(r)
	}
	h.inner.Receive(r, msgs)
}

// engines lists both context-aware engines; every scenario below must
// behave identically under each.
var engines = []struct {
	name string
	run  func(context.Context, *Config) (int, error)
}{
	{"sequential", RunSequentialCtx},
	{"sharded", RunShardedCtx},
}

// TestContextPathsEnginesAgree drives the cancellation, deadline, and panic
// exit paths through both engines and asserts they return the same round
// count and the same error for the same schedule.
func TestContextPathsEnginesAgree(t *testing.T) {
	const n = 6
	cases := []struct {
		name string
		// setup builds a fresh config and the context for one run.
		setup func() (context.Context, *Config)
		// wantRounds is the expected completed-round count.
		wantRounds int
		// check validates the returned error.
		check func(t *testing.T, err error)
	}{
		{
			name: "pre-canceled context",
			setup: func() (context.Context, *Config) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx, &Config{
					Net:       dynet.NewStatic(graph.Complete(n)),
					Procs:     newFloodProcs(n, 0),
					MaxRounds: 5,
				}
			},
			wantRounds: 0,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
			},
		},
		{
			name: "canceled from inside Send of round 2",
			setup: func() (context.Context, *Config) {
				ctx, cancel := context.WithCancel(context.Background())
				procs := newFloodProcs(n, 0)
				procs[3] = &hookProc{inner: procs[3], onSend: func(r int) {
					if r == 2 {
						cancel()
					}
				}}
				return ctx, &Config{
					Net:       dynet.NewStatic(graph.Complete(n)),
					Procs:     procs,
					MaxRounds: 5,
				}
			},
			wantRounds: 2,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
			},
		},
		{
			name: "canceled from inside Receive of round 1",
			setup: func() (context.Context, *Config) {
				ctx, cancel := context.WithCancel(context.Background())
				procs := newFloodProcs(n, 0)
				procs[0] = &hookProc{inner: procs[0], onReceive: func(r int) {
					if r == 1 {
						cancel()
					}
				}}
				return ctx, &Config{
					Net:       dynet.NewStatic(graph.Complete(n)),
					Procs:     procs,
					MaxRounds: 5,
				}
			},
			wantRounds: 1,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
			},
		},
		{
			name: "round deadline expiry in round 1",
			setup: func() (context.Context, *Config) {
				procs := newFloodProcs(n, 0)
				procs[2] = &hookProc{inner: procs[2], onSend: func(r int) {
					if r == 1 {
						time.Sleep(150 * time.Millisecond)
					}
				}}
				return context.Background(), &Config{
					Net:           dynet.NewStatic(graph.Complete(n)),
					Procs:         procs,
					MaxRounds:     5,
					RoundDeadline: 25 * time.Millisecond,
				}
			},
			wantRounds: 1,
			check: func(t *testing.T, err error) {
				var de *RoundDeadlineError
				if !errors.As(err, &de) {
					t.Fatalf("want *RoundDeadlineError, got %v", err)
				}
				if de.Round != 1 || de.Limit != 25*time.Millisecond {
					t.Fatalf("deadline error = %+v, want round 1 limit 25ms", de)
				}
			},
		},
		{
			name: "process panic in Send of round 2",
			setup: func() (context.Context, *Config) {
				procs := newFloodProcs(n, 0)
				procs[4] = &hookProc{inner: procs[4], onSend: func(r int) {
					if r == 2 {
						panic("protocol bug: bad state")
					}
				}}
				return context.Background(), &Config{
					Net:       dynet.NewStatic(graph.Complete(n)),
					Procs:     procs,
					MaxRounds: 5,
				}
			},
			wantRounds: 2,
			check: func(t *testing.T, err error) {
				var pe *ProcessPanicError
				if !errors.As(err, &pe) {
					t.Fatalf("want *ProcessPanicError, got %v", err)
				}
				if pe.Node != 4 || pe.Round != 2 || pe.Value != "protocol bug: bad state" {
					t.Fatalf("panic error = node %d round %d value %v", pe.Node, pe.Round, pe.Value)
				}
				if len(pe.Stack) == 0 {
					t.Fatal("panic error carries no stack")
				}
			},
		},
		{
			name: "process panic in Receive of round 0",
			setup: func() (context.Context, *Config) {
				procs := newFloodProcs(n, 0)
				procs[1] = &hookProc{inner: procs[1], onReceive: func(r int) {
					if r == 0 {
						panic("receive exploded")
					}
				}}
				return context.Background(), &Config{
					Net:       dynet.NewStatic(graph.Complete(n)),
					Procs:     procs,
					MaxRounds: 5,
				}
			},
			wantRounds: 0,
			check: func(t *testing.T, err error) {
				var pe *ProcessPanicError
				if !errors.As(err, &pe) {
					t.Fatalf("want *ProcessPanicError, got %v", err)
				}
				if pe.Node != 1 || pe.Round != 0 || pe.Value != "receive exploded" {
					t.Fatalf("panic error = node %d round %d value %v", pe.Node, pe.Round, pe.Value)
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				rounds int
				err    error
			}
			got := map[string]outcome{}
			for _, eng := range engines {
				ctx, cfg := tc.setup()
				rounds, err := eng.run(ctx, cfg)
				if rounds != tc.wantRounds {
					t.Errorf("%s: completed %d rounds, want %d (err %v)", eng.name, rounds, tc.wantRounds, err)
				}
				if err == nil {
					t.Fatalf("%s: expected an error", eng.name)
				}
				tc.check(t, err)
				got[eng.name] = outcome{rounds, err}
			}
			seq, sh := got["sequential"], got["sharded"]
			if seq.rounds != sh.rounds {
				t.Errorf("engines disagree on rounds: sequential %d, sharded %d", seq.rounds, sh.rounds)
			}
			// Errors must agree in type and message (stacks excluded: a
			// ProcessPanicError formats without its stack).
			if seq.err.Error() != sh.err.Error() {
				t.Errorf("engines disagree on error:\n  sequential: %v\n  sharded: %v", seq.err, sh.err)
			}
		})
	}
}

// TestContextCleanRunsUnaffected verifies the context plumbing is inert on
// runs that complete normally: both engines still agree with each other and
// with the wrapper entry points.
func TestContextCleanRunsUnaffected(t *testing.T) {
	build := func() *Config {
		return &Config{
			Net:       dynet.NewStatic(graph.Complete(8)),
			Procs:     newFloodProcs(8, 0),
			MaxRounds: 4,
		}
	}
	wantRounds := 4
	for _, eng := range engines {
		cfg := build()
		rounds, err := eng.run(context.Background(), cfg)
		if err != nil || rounds != wantRounds {
			t.Fatalf("%s: (%d, %v), want (%d, nil)", eng.name, rounds, err, wantRounds)
		}
	}
	for name, run := range map[string]Engine{"RunSequential": RunSequential, "RunSharded": RunSharded} {
		cfg := build()
		rounds, err := run(cfg)
		if err != nil || rounds != wantRounds {
			t.Fatalf("%s: (%d, %v), want (%d, nil)", name, rounds, err, wantRounds)
		}
	}
}

// TestRoundDeadlineAllowsFastRounds verifies a generous deadline does not
// interfere with a normal run.
func TestRoundDeadlineAllowsFastRounds(t *testing.T) {
	for _, eng := range engines {
		cfg := &Config{
			Net:           dynet.NewStatic(graph.Complete(5)),
			Procs:         newFloodProcs(5, 0),
			MaxRounds:     6,
			RoundDeadline: 5 * time.Second,
		}
		rounds, err := eng.run(context.Background(), cfg)
		if err != nil || rounds != 6 {
			t.Fatalf("%s: (%d, %v), want (6, nil)", eng.name, rounds, err)
		}
	}
}

// TestCanceledConcurrentReturnsWithinOneRound verifies the acceptance
// criterion directly: cancel mid-run and require RunShardedCtx to come
// back promptly with the round in progress aborted.
func TestCanceledConcurrentReturnsWithinOneRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 16
	procs := newFloodProcs(n, 0)
	cancelRound := 3
	procs[5] = &hookProc{inner: procs[5], onSend: func(r int) {
		if r == cancelRound {
			cancel()
		}
	}}
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Complete(n)),
		Procs:     procs,
		MaxRounds: 1 << 20, // would run ~forever without cancellation
	}
	done := make(chan struct{})
	var rounds int
	var err error
	go func() {
		rounds, err = RunShardedCtx(ctx, cfg)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled run did not return")
	}
	if rounds != cancelRound {
		t.Fatalf("completed %d rounds, want %d", rounds, cancelRound)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestEngineAdapters verifies SequentialEngine/ShardedEngine bind their
// context: a canceled context aborts runs made through the adapted engine.
func TestEngineAdapters(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, mk := range map[string]func(context.Context) Engine{
		"SequentialEngine": SequentialEngine,
		"ShardedEngine":    ShardedEngine,
	} {
		engine := mk(ctx)
		_, err := engine(&Config{
			Net:       dynet.NewStatic(graph.Complete(3)),
			Procs:     newFloodProcs(3, 0),
			MaxRounds: 3,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", name, err)
		}
	}
}
