package runtime

import (
	"context"
	"errors"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/obs"
)

// TestDisabledObsAddsNoAllocations locks the zero-cost contract at the
// instrumentation sites the round loop actually executes: with no
// collector installed, resolving handles and driving every per-round
// operation allocates nothing.
func TestDisabledObsAddsNoAllocations(t *testing.T) {
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)

	if allocs := testing.AllocsPerRun(100, func() {
		m := newEngineMetrics()
		start := m.roundNS.Start()
		m.rounds.Inc()
		m.cancels.Inc()
		m.deadlines.Inc()
		m.roundNS.Stop(start)
		m.recordFailure(nil)
	}); allocs != 0 {
		t.Fatalf("disabled obs sites allocate %v allocs/op, want 0", allocs)
	}
	// The zero Time from a nil histogram's Start proves no clock was read.
	var h *obs.Histogram
	if !h.Start().IsZero() {
		t.Fatal("nil histogram Start read the clock")
	}
}

// A full run with obs disabled and the identical run with obs enabled must
// allocate the same: the instrumentation adds counters and clock reads,
// never allocations.
func TestObservedRunAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		// Under the detector the count drifts by one even between two runs
		// of the disabled path, so the exact comparison cannot hold.
		t.Skip("allocation counts are inflated under -race")
	}
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)

	net := dynet.NewStatic(graph.Path(4))
	runOnce := func(col *obs.Collector) {
		obs.Set(col)
		cfg := &Config{Net: net, Procs: newFloodProcs(4, 0), MaxRounds: 5}
		if _, err := RunSequential(cfg); err != nil {
			t.Fatal(err)
		}
	}
	disabled := testing.AllocsPerRun(50, func() { runOnce(nil) })
	col := obs.New()
	// Warm the handle maps so steady-state is measured, not first-touch.
	runOnce(col)
	enabled := testing.AllocsPerRun(50, func() { runOnce(col) })
	if enabled > disabled {
		t.Fatalf("observed run allocates %v/op vs %v/op disabled; obs must add zero", enabled, disabled)
	}
}

// installCollector installs a fresh collector as the process-wide one for
// the rest of the test and returns it; cleanup restores the previous one.
func installCollector(t *testing.T) *obs.Collector {
	prev := obs.Global()
	t.Cleanup(func() { obs.Set(prev) })
	col := obs.New()
	obs.Set(col)
	return col
}

func TestObsCountsSequentialRun(t *testing.T) {
	col := installCollector(t)
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(5)),
		Procs:     newFloodProcs(5, 0),
		MaxRounds: 10,
	}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if got := snap.Counters[obs.RuntimeRounds]; got != 10 {
		t.Errorf("%s = %d, want 10", obs.RuntimeRounds, got)
	}
	// A static path of 5 nodes delivers 2*4 = 8 messages per round.
	if got := snap.Counters[obs.RuntimeMessages]; got != 80 {
		t.Errorf("%s = %d, want 80", obs.RuntimeMessages, got)
	}
	h := snap.Histograms[obs.RuntimeRoundNS]
	if h.Count != 10 || h.Sum <= 0 {
		t.Errorf("round histogram = %+v, want 10 timed rounds", h)
	}
	if got := snap.Counters[obs.RuntimePanics]; got != 0 {
		t.Errorf("%s = %d, want 0", obs.RuntimePanics, got)
	}
}

func TestObsCountsConcurrentRun(t *testing.T) {
	col := installCollector(t)
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(5)),
		Procs:     newFloodProcs(5, 0),
		MaxRounds: 10,
	}
	if _, err := RunSharded(cfg); err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if got := snap.Counters[obs.RuntimeRounds]; got != 10 {
		t.Errorf("%s = %d, want 10", obs.RuntimeRounds, got)
	}
	if got := snap.Counters[obs.RuntimeMessages]; got != 80 {
		t.Errorf("%s = %d, want 80", obs.RuntimeMessages, got)
	}
	if h := snap.Histograms[obs.RuntimeRoundNS]; h.Count != 10 {
		t.Errorf("round histogram count = %d, want 10", h.Count)
	}
}

func TestObsCountsPanicAndCancel(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine.name, func(t *testing.T) {
			col := installCollector(t)
			procs := newFloodProcs(3, 0)
			procs[0] = &hookProc{
				inner: procs[0],
				onSend: func(r int) {
					if r == 1 {
						panic("boom")
					}
				},
			}
			cfg := &Config{
				Net:       dynet.NewStatic(graph.Path(3)),
				Procs:     procs,
				MaxRounds: 5,
			}
			var pe *ProcessPanicError
			if _, err := engine.run(context.Background(), cfg); !errors.As(err, &pe) {
				t.Fatalf("want ProcessPanicError, got %v", err)
			}
			if got := col.Snapshot().Counters[obs.RuntimePanics]; got != 1 {
				t.Errorf("%s = %d, want 1", obs.RuntimePanics, got)
			}

			col2 := installCollector(t)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			cfg2 := &Config{
				Net:       dynet.NewStatic(graph.Path(3)),
				Procs:     newFloodProcs(3, 0),
				MaxRounds: 5,
			}
			if _, err := engine.run(ctx, cfg2); !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if got := col2.Snapshot().Counters[obs.RuntimeCancels]; got != 1 {
				t.Errorf("%s = %d, want 1", obs.RuntimeCancels, got)
			}
		})
	}
}

// The engine records into the process-wide collector, the one the -metrics
// flag installs.
func TestObsGlobalFallback(t *testing.T) {
	col := installCollector(t)

	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(3)),
		Procs:     newFloodProcs(3, 0),
		MaxRounds: 4,
	}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot().Counters[obs.RuntimeRounds]; got != 4 {
		t.Fatalf("global fallback recorded %d rounds, want 4", got)
	}
}

// BenchmarkRoundLoopObsDisabled is the committed evidence for the
// "disabled = nil collector = no overhead" contract on the full loop;
// compare it with BenchmarkRoundLoopObsEnabled.
func BenchmarkRoundLoopObsDisabled(b *testing.B) {
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)
	net := dynet.NewStatic(graph.Path(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := &Config{Net: net, Procs: newFloodProcs(8, 0), MaxRounds: 16}
		if _, err := RunSequential(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundLoopObsEnabled(b *testing.B) {
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(obs.New())
	net := dynet.NewStatic(graph.Path(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := &Config{Net: net, Procs: newFloodProcs(8, 0), MaxRounds: 16}
		if _, err := RunSequential(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
