package runtime

import (
	"context"
	"errors"

	"anondyn/internal/obs"
)

// engineMetrics bundles the handles the round loop touches. With
// observability disabled every field is nil and every operation is a
// single predictable branch — no allocation, no clock reads (the
// "disabled = nil collector" contract, locked by
// TestDisabledObsAddsNoAllocations).
type engineMetrics struct {
	rounds    *obs.Counter   // completed rounds
	messages  *obs.Counter   // inbox messages delivered
	roundNS   *obs.Histogram // per-round wall time
	panics    *obs.Counter   // runs aborted by a process panic
	cancels   *obs.Counter   // runs stopped by context cancellation
	deadlines *obs.Counter   // runs aborted by Config.RoundDeadline
	shards    *obs.Gauge     // shard count of the last run
}

// newEngineMetrics resolves the run's collector, the process-wide one
// (obs.Global), which the -metrics and -pprof flags install. It is nil when
// the process runs unobserved, and then the round loop runs with zero
// instrumentation overhead: no allocations, no clock reads, one nil-check
// branch per site. Handle lookup happens once per run, never per round.
func newEngineMetrics() engineMetrics {
	col := obs.Global()
	if col == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		rounds:    col.Counter(obs.RuntimeRounds),
		messages:  col.Counter(obs.RuntimeMessages),
		roundNS:   col.Histogram(obs.RuntimeRoundNS),
		panics:    col.Counter(obs.RuntimePanics),
		cancels:   col.Counter(obs.RuntimeCancels),
		deadlines: col.Counter(obs.RuntimeDeadlines),
		shards:    col.Gauge(obs.RuntimeShards),
	}
}

// recordFailure classifies a run-aborting error into the panic, deadline,
// or cancel counter. The round loop funnels every abort through it; other
// errors, such as a bad snapshot, count in none.
func (m engineMetrics) recordFailure(err error) {
	if err == nil {
		// Return before the errors.As targets are declared: their address
		// is taken below, so they are heap-allocated, and the nil path
		// must stay allocation-free.
		return
	}
	var pe *ProcessPanicError
	if errors.As(err, &pe) {
		m.panics.Inc()
		return
	}
	var de *RoundDeadlineError
	if errors.As(err, &de) {
		m.deadlines.Inc()
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		m.cancels.Inc()
	}
}
