// Cancellation: stopping a synchronous execution cleanly.
//
// The paper's model runs for as many rounds as the adversary can sustain —
// on large sizes that is a long time, so the engines accept a
// context.Context and stop at round granularity. This example shows the
// three ways a run ends early, on the sharded worker-pool engine:
//
//  1. the caller's context is canceled (here: by the caller itself, once
//     round 9 completes) and the run returns at the next round boundary
//     with the rounds it completed;
//  2. a single round overruns Config.RoundDeadline — in a synchronous model
//     a round that cannot complete is an execution fault, reported as a
//     typed *RoundDeadlineError;
//  3. a process panics, and instead of crashing the program the engine
//     recovers it into a *ProcessPanicError naming the node and round.
//
// In all three cases every worker goroutine is joined before the engine
// returns: canceling a run never leaks goroutines.
//
// Run with:
//
//	go run ./examples/cancellation
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	rt "runtime"
	"time"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// tick is a minimal process: it broadcasts its round number and can be
// told to dawdle or blow up at a chosen round.
type tick struct {
	slowAt  int           // sleep in this round's receive phase (-1: never)
	delay   time.Duration // how long to sleep
	panicAt int           // panic in this round's send phase (-1: never)
}

func (p *tick) Send(r int) runtime.Message {
	if r == p.panicAt {
		panic("protocol bug: unexpected state")
	}
	return r
}

func (p *tick) Receive(r int, msgs []runtime.Message) {
	if r == p.slowAt {
		time.Sleep(p.delay)
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 16
	ring, err := graph.Cycle(n)
	if err != nil {
		return err
	}
	net := dynet.NewStatic(ring)

	cfg := func(mk func(i int) *tick) *runtime.Config {
		procs := make([]runtime.Process, n)
		for i := range procs {
			procs[i] = mk(i)
		}
		return &runtime.Config{Net: net, Procs: procs, MaxRounds: 1 << 20}
	}
	never := func(int) *tick { return &tick{slowAt: -1, panicAt: -1} }

	before := rt.NumGoroutine()

	// 1. A canceled context: the caller cancels it mid-run, after round 9
	// completes, and the engine reports how far it got. (A wall-clock
	// deadline, context.WithTimeout, stops a run the same way, but after a
	// number of rounds that depends on the host.)
	ctx, cancel := context.WithCancel(context.Background())
	stopped := cfg(never)
	stopped.OnRound = func(r int) {
		if r == 9 {
			cancel()
		}
	}
	rounds, err := runtime.RunShardedCtx(ctx, stopped)
	cancel()
	if !errors.Is(err, context.Canceled) {
		return fmt.Errorf("want a cancellation error, got rounds=%d err=%v", rounds, err)
	}
	fmt.Printf("canceled run     : stopped after %d completed rounds: %v\n", rounds, err)

	// 2. A per-round budget: node 5 stalls round 3 for 200ms against a
	// 25ms round deadline, and the engine names the offending round.
	stall := cfg(func(i int) *tick {
		p := never(i)
		if i == 5 {
			p.slowAt, p.delay = 3, 200*time.Millisecond
		}
		return p
	})
	stall.RoundDeadline = 25 * time.Millisecond
	rounds, err = runtime.RunShardedCtx(context.Background(), stall)
	var de *runtime.RoundDeadlineError
	if !errors.As(err, &de) {
		return fmt.Errorf("want a *RoundDeadlineError, got rounds=%d err=%v", rounds, err)
	}
	fmt.Printf("round overrun    : round %d blew its %v budget\n", de.Round, de.Limit)

	// 3. A panicking process: node 7 panics in round 2's send phase; the
	// engine isolates it and returns a typed error instead of crashing.
	buggy := cfg(func(i int) *tick {
		p := never(i)
		if i == 7 {
			p.panicAt = 2
		}
		return p
	})
	rounds, err = runtime.RunShardedCtx(context.Background(), buggy)
	var pe *runtime.ProcessPanicError
	if !errors.As(err, &pe) {
		return fmt.Errorf("want a *ProcessPanicError, got rounds=%d err=%v", rounds, err)
	}
	fmt.Printf("isolated panic   : node %d panicked in round %d: %v\n", pe.Node, pe.Round, pe.Value)

	// All worker goroutines were joined on every path above.
	deadline := time.Now().Add(time.Second)
	for rt.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("goroutines       : %d before, %d after — nothing leaked\n", before, rt.NumGoroutine())
	return nil
}
