// Package obs is the repository's zero-cost-when-disabled observability
// layer: named counters, gauges, and duration histograms behind nil-checkable
// handles, aggregated by a Collector and exported as a JSON snapshot.
//
// The contract every instrumented hot path relies on:
//
//	disabled = nil collector = nil handles = no allocation, no atomics.
//
// Every method on *Collector, *Counter, *Gauge, and *Histogram is safe on a
// nil receiver and returns immediately, so instrumentation sites read
//
//	m.rounds.Inc()          // one predictable branch when disabled
//	start := m.roundNS.Start() // no time.Now() call when disabled
//	...
//	m.roundNS.Stop(start)
//
// with no guards at the call site and zero allocations on the disabled
// path — a property locked by TestDisabledHandlesAllocateNothing and the
// runtime round-loop benchmark.
//
// A Collector is either passed explicitly (sweep.Options.Obs) or installed
// process-wide with Enable/Set for code with no plumbing path (the round
// engines, linalg elimination, the kernel solvers). Global()
// returns nil unless a collector was installed, so un-instrumented
// processes — every binary run without -metrics/-pprof — stay on the nil
// fast path everywhere.
//
// All handle operations are atomic and safe for concurrent use; registering
// a name twice returns the same handle.
package obs

import (
	"sync"
	"time"
)

// Metric names used by the instrumented packages. They live here, not in
// the packages that emit them, so the full vocabulary of a snapshot is
// documented in one place.
const (
	// Runtime engine (internal/runtime): the round-execution hot loop.
	RuntimeRounds    = "runtime.rounds"             // counter: rounds completed
	RuntimeMessages  = "runtime.messages_delivered" // counter: inbox messages delivered
	RuntimeRoundNS   = "runtime.round_ns"           // histogram: per-round wall time
	RuntimePanics    = "runtime.process_panics"     // counter: runs aborted by a process panic
	RuntimeCancels   = "runtime.cancels"            // counter: runs stopped by context cancellation
	RuntimeDeadlines = "runtime.deadline_overruns"  // counter: runs aborted by Config.RoundDeadline
	RuntimeShards    = "runtime.engine_shards"      // gauge: shard count of the last engine run

	// Sweep engine (internal/sweep): campaign throughput and durability.
	SweepJobs            = "sweep.jobs_executed"     // counter: jobs executed by this process
	SweepRetries         = "sweep.job_retries"       // counter: re-attempts after an execution fault
	SweepQueueDepth      = "sweep.queue_depth"       // gauge: pending jobs not yet completed
	SweepJobNS           = "sweep.job_ns"            // histogram: per-job wall time
	SweepJournalAppendNS = "sweep.journal_append_ns" // histogram: journal write+fsync latency, one observation per batch of rows

	// Sweep daemon (internal/sweep/daemon): the campaign service. The
	// engine-level metrics above are additionally recorded per campaign in
	// each campaign's own collector, exposed on the daemon's /metrics.
	DaemonCampaignsSubmitted = "daemon.campaigns_submitted" // counter: campaigns accepted over HTTP
	DaemonCampaignsResumed   = "daemon.campaigns_resumed"   // counter: unfinished campaigns re-queued at startup
	DaemonCampaignsDone      = "daemon.campaigns_done"      // counter: campaigns that completed
	DaemonCampaignsFailed    = "daemon.campaigns_failed"    // counter: campaigns stopped by an execution fault
	DaemonCampaignsCanceled  = "daemon.campaigns_canceled"  // counter: campaigns stopped by a cancel request
	DaemonCampaignsActive    = "daemon.campaigns_active"    // gauge: campaigns running right now
	DaemonHTTPRequests       = "daemon.http_requests"       // counter: API requests served
	DaemonStreamClients      = "daemon.stream_clients"      // gauge: journal streams currently open

	// Exact linear algebra (internal/linalg): rational elimination.
	LinalgPivots   = "linalg.elimination_pivots" // counter: pivots consumed by rref
	LinalgPeakBits = "linalg.peak_bits"          // gauge: widest numerator or denominator, in bits, left in a pivot row

	// Kernel solvers (internal/kernel): the leader's counting rule.
	KernelSolverCalls = "kernel.solver_calls" // counter: full view solves (SolveCountInterval)
	KernelRounds      = "kernel.rounds"       // counter: incremental observations folded in
	KernelRoundNS     = "kernel.round_ns"     // histogram: per-round incremental solve time

	// Property-testing harness (internal/check): randomized verification.
	CheckInstances   = "check.instances_generated" // counter: instances drawn by generators
	CheckEvals       = "check.oracle_evals"        // counter: oracle checks evaluated
	CheckFailures    = "check.failures"            // counter: oracle checks that fired
	CheckShrinkSteps = "check.shrink_steps"        // counter: candidate instances tried while shrinking
)

// Collector owns a process- or run-scoped registry of named metrics. The
// zero value is not usable; construct with New. A nil *Collector is the
// disabled state: every method no-ops and every handle accessor returns a
// nil handle.
type Collector struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an enabled, empty collector. Its uptime (the denominator of
// snapshot rates such as jobs/sec) starts now.
func New() *Collector {
	return &Collector{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. On a nil
// collector it returns a nil handle, whose methods all no-op.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr, ok := c.counters[name]
	if !ok {
		ctr = &Counter{}
		c.counters[name] = ctr
	}
	return ctr
}

// Gauge returns the named gauge, creating it on first use. Nil collector,
// nil handle.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.gauges[name]
	if !ok {
		g = &Gauge{}
		c.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Nil
// collector, nil handle.
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hists[name]
	if !ok {
		h = newHistogram()
		c.hists[name] = h
	}
	return h
}
