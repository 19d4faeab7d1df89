package counting

import (
	"context"
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
			net, err := dynet.NewRandomChurn(n, 0.4, seed)
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
// the identical (count, rounds).
func TestIncrementalCountEngineIndependent(t *testing.T) {
	ctx := context.Background()
	engines := map[string]Runner{
		"sequential": runtime.SequentialEngine(ctx),
		"sharded":    runtime.ShardedEngine(ctx),
	}
	g, err := graph.Cycle(7)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct{ count, rounds int }
	var want outcome
	first := true
	for name, run := range engines {
		count, rounds, err := IncrementalCount(dynet.NewStatic(g), 0, 100000, run)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := outcome{count, rounds}
		if first {
			want, first = got, false
			continue
		}
		if got != want {
			t.Fatalf("%s: %+v differs from %+v", name, got, want)
		}
	}
	if want.count != 7 {
		t.Fatalf("count = %d, want 7", want.count)
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
