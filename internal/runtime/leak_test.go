package runtime

import (
	"context"
	gort "runtime"
	"testing"
	"time"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// TestNoGoroutineLeak verifies that every worker goroutine is joined before
// RunSharded returns, on normal completion, early stop, and every abort
// path: an adversary that errors at round 0, an adversary that returns a
// malformed graph mid-run, a panicking process, a canceled context, and a
// round-deadline overrun.
func TestNoGoroutineLeak(t *testing.T) {
	baseline := gort.NumGoroutine()
	runOnce := func(ctx context.Context, mutate func(c *Config)) {
		cfg := &Config{
			Net:       dynet.NewStatic(graph.Complete(20)),
			Procs:     newFloodProcs(20, 0),
			MaxRounds: 10,
			Shards:    3, // multi-shard even on a single-core runner
		}
		if mutate != nil {
			mutate(cfg)
		}
		_, _ = RunShardedCtx(ctx, cfg)
	}
	bg := context.Background()
	runOnce(bg, nil)                                                         // normal completion
	runOnce(bg, func(c *Config) { c.Stop = func(int) bool { return true } }) // early stop
	runOnce(bg, func(c *Config) {                                            // abort at round 0: nil topology
		c.Adaptive = func(int, []Message) *graph.Graph { return nil }
	})
	runOnce(bg, func(c *Config) { // error-injecting adversary: malformed graph mid-run
		c.Adaptive = func(r int, _ []Message) *graph.Graph {
			if r == 3 {
				return graph.New(7) // wrong node count
			}
			return graph.Complete(20)
		}
	})
	runOnce(bg, func(c *Config) { // process panic mid-run
		c.Procs[11] = &hookProc{inner: c.Procs[11], onSend: func(r int) {
			if r == 2 {
				panic("leak-test panic")
			}
		}}
	})
	{ // cancellation mid-run
		ctx, cancel := context.WithCancel(bg)
		runOnce(ctx, func(c *Config) {
			c.Procs[0] = &hookProc{inner: c.Procs[0], onReceive: func(r int) {
				if r == 1 {
					cancel()
				}
			}}
		})
		cancel()
	}
	runOnce(bg, func(c *Config) { // round-deadline overrun
		c.RoundDeadline = time.Millisecond
		c.Procs[5] = &hookProc{inner: c.Procs[5], onSend: func(r int) {
			if r == 0 {
				time.Sleep(20 * time.Millisecond)
			}
		}}
	})
	// Allow exited goroutines to be reaped.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if gort.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d baseline", gort.NumGoroutine(), baseline)
}

// goroutineProbe records the goroutine count its Send runs under.
type goroutineProbe struct{ seen int }

func (p *goroutineProbe) Send(int) Message       { p.seen = gort.NumGoroutine(); return nil }
func (p *goroutineProbe) Receive(int, []Message) {}

// TestOneShardStartsNoGoroutine checks that a one-shard run executes on the
// calling goroutine: inside Send, the goroutine count is the caller's.
// RunSequential runs one shard whatever Config.Shards says.
func TestOneShardStartsNoGoroutine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    Engine
		shards int
	}{
		{"RunSharded", RunSharded, 1},
		{"RunSequential", RunSequential, 3},
	} {
		probe := &goroutineProbe{}
		cfg := &Config{
			Net:       dynet.NewStatic(graph.Path(3)),
			Procs:     []Process{probe, &goroutineProbe{}, &goroutineProbe{}},
			MaxRounds: 2,
			Shards:    tc.shards,
		}
		before := gort.NumGoroutine()
		if _, err := tc.run(cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if probe.seen != before {
			t.Errorf("%s with Shards %d: %d goroutines inside Send, %d before the run",
				tc.name, tc.shards, probe.seen, before)
		}
	}
}
