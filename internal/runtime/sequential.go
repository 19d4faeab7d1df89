package runtime

import "context"

// RunSequential executes the configured computation as one shard on the
// calling goroutine, processing nodes in ascending order within each phase,
// and starts no goroutine. It returns the number of completed rounds. The
// run ends when Stop returns true or MaxRounds rounds have completed,
// whichever is first. Config.Shards is validated but otherwise ignored.
// RunSequential is RunSequentialCtx over context.Background().
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
	return runShards(ctx, cfg, 1)
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
