package kernel

import "anondyn/internal/obs"

// Solver instrumentation reports through the process-wide collector
// (obs.Global): the kernel solvers sit at the bottom of every protocol
// stack — counting trials, sweep jobs, the experiment suite — with no
// plumbing path for a per-run collector. Unobserved processes (no
// -metrics/-pprof) pay one nil check per solve, nothing per round.

// solveCalls returns the full-view solve counter, nil when unobserved.
func solveCalls() *obs.Counter {
	if col := obs.Global(); col != nil {
		return col.Counter(obs.KernelSolverCalls)
	}
	return nil
}

// incrementalMetrics returns the per-round counter and wall-time histogram
// for the incremental solver, nil handles when unobserved. Resolved once
// per IncrementalSolver.Reset, never per round.
func incrementalMetrics() (*obs.Counter, *obs.Histogram) {
	col := obs.Global()
	if col == nil {
		return nil, nil
	}
	return col.Counter(obs.KernelRounds), col.Histogram(obs.KernelRoundNS)
}
