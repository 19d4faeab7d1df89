package obs

import "sync/atomic"

// global is the process-wide collector, nil unless installed. It serves
// the instrumentation sites with no plumbing path to a per-run collector:
// the round engines, the exact linear algebra inside linalg.rref and the
// kernel solvers, which run deep inside protocol code. The sweep engine
// takes a collector explicitly (sweep.Options.Obs), because the daemon
// runs one per campaign, and defaults to the global one.
var global atomic.Pointer[Collector]

// Enable installs a fresh collector as the process-wide default and
// returns it. It is what the shared -metrics/-pprof flags call once at
// startup.
func Enable() *Collector {
	c := New()
	global.Store(c)
	return c
}

// Set installs c (possibly nil, which disables global collection again).
// Tests use it to scope a collector to one test and restore the previous
// state afterwards.
func Set(c *Collector) {
	global.Store(c)
}

// Global returns the process-wide collector, or nil when observability is
// disabled — the common case, and the one every hot path is optimized for.
func Global() *Collector {
	return global.Load()
}
