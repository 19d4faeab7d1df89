package runtime

import (
	"context"
	"time"

	"anondyn/internal/graph"
)

// RunSequential executes the configured computation in a single goroutine,
// processing nodes in ascending order within each phase. It returns the
// number of completed rounds. The run ends when Stop returns true or
// MaxRounds rounds have completed, whichever is first.
//
// RunSequential and RunSharded implement the same semantics; the
// sequential engine is the reference implementation and is fully
// deterministic. RunSequential is RunSequentialCtx over
// context.Background().
func RunSequential(cfg *Config) (int, error) {
	return RunSequentialCtx(context.Background(), cfg)
}

// RunSequentialCtx is RunSequential under a context. The context is checked
// at the top of every round and between the send and receive phases; once
// it is done, the run stops with the completed-round count and an error
// wrapping ctx.Err(). If Config.RoundDeadline is positive, a round whose
// wall-clock time exceeds it aborts the run with a *RoundDeadlineError. A
// panicking process aborts the run with a *ProcessPanicError instead of
// propagating the panic.
func RunSequentialCtx(ctx context.Context, cfg *Config) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	m := cfg.metrics()
	n := cfg.Net.N()
	if n == 0 {
		// An empty network completes no rounds, as in the sharded engine.
		return 0, nil
	}
	outbox := make([]Message, n)
	sc := newRoundScratch(cfg, n)
	conn := connChecker{on: cfg.IntervalConnected}
	for r := 0; r < cfg.MaxRounds; r++ {
		if err := ctx.Err(); err != nil {
			m.cancels.Inc()
			return r, canceled(r, err)
		}
		obsStart := m.roundNS.Start()
		var roundStart time.Time
		if cfg.RoundDeadline > 0 {
			roundStart = time.Now()
		}
		var g *graph.Graph
		if cfg.Adaptive == nil {
			var err error
			if g, err = cfg.topology(r, nil); err != nil {
				return r, err
			}
			if err := conn.check(r, g); err != nil {
				return r, err
			}
			// Degree oracle (Discussion model): degree known before Send.
			for v := 0; v < n; v++ {
				if da, ok := cfg.Procs[v].(DegreeAware); ok {
					deg := g.Degree(graph.NodeID(v))
					if err := guardSetDegree(da, v, r, deg); err != nil {
						m.panics.Inc()
						return r, err
					}
				}
			}
		}
		// Send phase.
		for v := 0; v < n; v++ {
			if err := guardSend(cfg.Procs[v], v, r, outbox); err != nil {
				m.panics.Inc()
				return r, err
			}
		}
		if err := ctx.Err(); err != nil {
			m.cancels.Inc()
			return r, canceled(r, err)
		}
		if cfg.Adaptive != nil {
			// The omniscient adversary fixes the topology knowing the
			// round's broadcasts.
			var err error
			if g, err = cfg.topology(r, outbox); err != nil {
				return r, err
			}
			if err := conn.check(r, g); err != nil {
				return r, err
			}
		}
		// Receive phase.
		inboxes := sc.assemble(g, outbox)
		if m.messages != nil {
			m.messages.Add(delivered(inboxes))
		}
		for v := 0; v < n; v++ {
			if err := guardReceive(cfg.Procs[v], v, r, inboxes[v]); err != nil {
				m.panics.Inc()
				return r, err
			}
		}
		if err := ctx.Err(); err != nil {
			m.cancels.Inc()
			return r, canceled(r, err)
		}
		if cfg.RoundDeadline > 0 && time.Since(roundStart) > cfg.RoundDeadline {
			m.deadlines.Inc()
			return r, &RoundDeadlineError{Round: r, Limit: cfg.RoundDeadline}
		}
		m.rounds.Inc()
		m.roundNS.Stop(obsStart)
		if cfg.OnRound != nil {
			cfg.OnRound(r)
		}
		if cfg.Stop != nil && cfg.Stop(r) {
			return r + 1, nil
		}
	}
	return cfg.MaxRounds, nil
}

// RunUntilOutput runs the computation with the given engine until the
// process at node `leader` reports a terminal output via the Outputter
// interface, or maxRounds elapse. It returns the output value and the number
// of rounds used. If the leader never terminates, ok is false. Pass an
// engine produced by SequentialEngine or ShardedEngine to run under a
// context.
func RunUntilOutput(cfg *Config, leader int, run Engine) (value, rounds int, ok bool, err error) {
	if leader < 0 || leader >= len(cfg.Procs) {
		return 0, 0, false, errIndex(leader, len(cfg.Procs))
	}
	out, isOut := cfg.Procs[leader].(Outputter)
	if !isOut {
		return 0, 0, false, errNotOutputter(leader)
	}
	inner := *cfg
	inner.Stop = func(r int) bool {
		if cfg.Stop != nil && cfg.Stop(r) {
			return true
		}
		_, done := out.Output()
		return done
	}
	rounds, err = run(&inner)
	if err != nil {
		return 0, rounds, false, err
	}
	value, ok = out.Output()
	return value, rounds, ok, nil
}
