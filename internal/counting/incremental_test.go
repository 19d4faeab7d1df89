package counting

import (
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

func TestIncrementalClockSchedule(t *testing.T) {
	c := newIncClock()
	// Guess 1: 12 drain rounds then 2 verdict rounds.
	for i := 0; i < 12; i++ {
		if k, drain, last := c.phase(); k != 1 || !drain || last {
			t.Fatalf("round %d: phase (%d, %v, %v)", i, k, drain, last)
		}
		c.tick()
	}
	if k, drain, last := c.phase(); k != 1 || drain || last {
		t.Fatalf("first verdict round: phase (%d, %v, %v)", k, drain, last)
	}
	c.tick()
	if k, drain, last := c.phase(); k != 1 || drain || !last {
		t.Fatalf("deciding round: phase (%d, %v, %v)", k, drain, last)
	}
	c.tick()
	if k, drain, _ := c.phase(); k != 2 || !drain {
		t.Fatalf("after guess 1: phase (%d, %v)", k, drain)
	}
	if got, want := IncrementalRounds(1), 14; got != want {
		t.Fatalf("IncrementalRounds(1) = %d, want %d", got, want)
	}
	if got, want := IncrementalRounds(3), 14+30+52; got != want {
		t.Fatalf("IncrementalRounds(3) = %d, want %d", got, want)
	}
}

func TestIncrementalCountExact(t *testing.T) {
	run := runtime.RunSequential
	t.Run("single", func(t *testing.T) {
		count, rounds, err := IncrementalCount(dynet.NewStatic(graph.New(1)), 0, 100, run)
		if err != nil {
			t.Fatal(err)
		}
		if count != 1 {
			t.Fatalf("count = %d, want 1", count)
		}
		if rounds != IncrementalRounds(1) {
			t.Fatalf("rounds = %d, want %d", rounds, IncrementalRounds(1))
		}
	})
	t.Run("complete", func(t *testing.T) {
		for n := 2; n <= 8; n++ {
			net := dynet.NewStatic(graph.Complete(n))
			count, rounds, err := IncrementalCount(net, 0, 4*IncrementalRounds(n), run)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if count != n {
				t.Fatalf("n=%d: count = %d", n, count)
			}
			if rounds > IncrementalRounds(2*n) {
				t.Fatalf("n=%d: rounds = %d above the polynomial budget %d",
					n, rounds, IncrementalRounds(2*n))
			}
		}
	})
	t.Run("star", func(t *testing.T) {
		for _, n := range []int{3, 6, 10} {
			g, err := graph.Star(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			count, _, err := IncrementalCount(dynet.NewStatic(g), 0, 8*IncrementalRounds(n), run)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if count != n {
				t.Fatalf("n=%d: count = %d", n, count)
			}
		}
	})
	t.Run("churn", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			const n = 6
			net, err := dynet.NewTInterval(n, 1, 0.4, seed)
			if err != nil {
				t.Fatal(err)
			}
			count, _, err := IncrementalCount(net, 0, 8*IncrementalRounds(2*n), run)
			if err != nil {
				t.Fatalf("seed=%d: %v", seed, err)
			}
			if count != n {
				t.Fatalf("seed=%d: count = %d", seed, count)
			}
		}
	})
}

// The incremental counter's decisions depend only on sums of shares and
// maxima of alarm tags — both commutative — so every engine must produce
// the identical (count, rounds). WorstCaseInstance(4) serves CSR
// snapshots, so on several shards both the reused messages and the
// snapshot pointers the engine finds repeated cross worker goroutines; CI
// repeats this test under the race detector.
func TestIncrementalCountEngineIndependent(t *testing.T) {
	cycle, err := graph.Cycle(7)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := WorstCaseInstance(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		net    dynet.Dynamic
		leader graph.NodeID
		want   int
	}{
		{"cycle-7", dynet.NewStatic(cycle), 0, 7},
		{worst.Name, worst.Net, worst.Leader, worst.TrueN},
	} {
		count, rounds, err := IncrementalCount(tc.net, tc.leader, 100000, runtime.RunSequential)
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.name, err)
		}
		if count != tc.want {
			t.Fatalf("%s sequential: count = %d, want %d", tc.name, count, tc.want)
		}
		for _, shards := range []int{1, 2, 5} {
			sharded := func(cfg *runtime.Config) (int, error) {
				c := *cfg
				c.Shards = shards
				return runtime.RunSharded(&c)
			}
			c, r, err := IncrementalCount(tc.net, tc.leader, 100000, sharded)
			if err != nil {
				t.Fatalf("%s on %d shards: %v", tc.name, shards, err)
			}
			if c != count || r != rounds {
				t.Fatalf("%s on %d shards: count %d in %d rounds, sequential %d in %d",
					tc.name, shards, c, r, count, rounds)
			}
		}
	}
}

// TestIncrementalCountAllocsFlatInRounds requires that a count's
// allocations do not grow with the rounds it runs: each process reuses
// its broadcast (runtime.Message) and its scratch, so a steady-state round
// allocates nothing. Both budgets stop WorstCaseInstance(4) short of its
// count, so the two runs differ only in their 700 extra rounds. Those may
// cost an allocation or two that do not depend on rounds (a sync.Pool
// refilled after a collection), but fewer than one per node; one boxed
// message per node per round would cost 7 × 700.
func TestIncrementalCountAllocsFlatInRounds(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	inst, err := WorstCaseInstance(4)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(budget int) float64 {
		return testing.AllocsPerRun(10, func() {
			_, rounds, err := IncrementalCount(inst.Net, inst.Leader, budget, runtime.RunSequential)
			if err == nil || rounds != budget {
				t.Fatalf("budget %d: %d rounds, %v; want the whole budget and no count", budget, rounds, err)
			}
		})
	}
	short, long := allocs(100), allocs(800)
	if n := float64(inst.Net.N()); long-short >= n {
		t.Errorf("%.0f allocations in 100 rounds, %.0f in 800: the extra rounds allocate %.0f times, want fewer than %.0f",
			short, long, long-short, n)
	}
}

func TestIncrementalCountErrors(t *testing.T) {
	run := runtime.RunSequential
	net := dynet.NewStatic(graph.Complete(3))
	if _, _, err := IncrementalCount(net, 5, 100, run); err == nil {
		t.Fatal("out-of-range leader accepted")
	}
	if _, _, err := IncrementalCount(net, 0, 0, run); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, _, err := IncrementalCount(dynet.NewStatic(graph.New(2)), 0, 20, run); err == nil {
		t.Fatal("disconnected network accepted")
	}
	if _, _, err := IncrementalCount(net, 0, 5, run); err == nil {
		t.Fatal("expected budget exhaustion before the first verdict")
	}
}
