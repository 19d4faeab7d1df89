package runtime

import (
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/obs"
)

// quietProc exercises send, canonical delivery, and receive without
// retaining anything, so the engine's own allocations dominate.
type quietProc struct{ seen bool }

func (p *quietProc) Send(int) Message {
	if p.seen {
		return 1
	}
	return 0
}

func (p *quietProc) Receive(_ int, msgs []Message) {
	for _, m := range msgs {
		if m == 1 {
			p.seen = true
		}
	}
}

func quietKey(m Message) uint64 {
	if m == 1 {
		return 1
	}
	return 0
}

// TestRoundLoopStepAllocCeiling locks the steady-state allocation budget of
// one sequential round (send, inbox assembly into engine-owned scratch,
// receive). The per-step cost is isolated by differencing a short and a
// long run, which cancels the per-run setup (procs, config, scratch).
func TestRoundLoopStepAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)

	const n, shortR, longR = 16, 4, 24
	g, err := graph.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	net := dynet.NewStatic(g)
	run := func(rounds int) {
		procs := make([]Process, n)
		for i := range procs {
			procs[i] = &quietProc{seen: i == 0}
		}
		cfg := &Config{Net: net, Procs: procs, MaxRounds: rounds, CanonKey: quietKey}
		if _, err := RunSequential(cfg); err != nil {
			t.Fatal(err)
		}
	}
	short := testing.AllocsPerRun(20, func() { run(shortR) })
	long := testing.AllocsPerRun(20, func() { run(longR) })
	perStep := (long - short) / float64(longR-shortR)
	// With the reused round scratch a steady-state step allocates nothing;
	// the ceiling of 2 leaves room for incidental growth of the scratch
	// slices while still catching any reintroduced per-round allocation
	// (the pre-scratch engine allocated hundreds per step).
	if perStep > 2 {
		t.Fatalf("sequential round step allocates %.2f/step, want <= 2", perStep)
	}
}
