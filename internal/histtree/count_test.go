package histtree

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

func seqEngine() Runner { return runtime.RunSequential }

// cycleNet is a static n-cycle (n >= 3), the symmetric family used for the
// linear-scaling measurements: the partition stabilizes into distance
// classes, so the tree stays small at every n.
func cycleNet(t *testing.T, n int) dynet.Dynamic {
	t.Helper()
	g, err := graph.Cycle(n)
	if err != nil {
		t.Fatalf("cycle(%d): %v", n, err)
	}
	return dynet.NewStatic(g)
}

func TestCountExactSmallFamilies(t *testing.T) {
	cases := []struct {
		name string
		net  func(t *testing.T) dynet.Dynamic
		n    int
	}{
		{"single", func(t *testing.T) dynet.Dynamic {
			return dynet.NewStatic(graph.New(1))
		}, 1},
		{"pair", func(t *testing.T) dynet.Dynamic {
			g := graph.New(2)
			if err := g.AddEdge(0, 1); err != nil {
				t.Fatal(err)
			}
			return dynet.NewStatic(g)
		}, 2},
		{"path-5", func(t *testing.T) dynet.Dynamic {
			return dynet.NewStatic(graph.Path(5))
		}, 5},
		{"cycle-9", func(t *testing.T) dynet.Dynamic { return cycleNet(t, 9) }, 9},
		{"star-12", func(t *testing.T) dynet.Dynamic {
			g, err := graph.Star(12, 0)
			if err != nil {
				t.Fatal(err)
			}
			return dynet.NewStatic(g)
		}, 12},
		{"complete-7", func(t *testing.T) dynet.Dynamic {
			return dynet.NewStatic(graph.Complete(7))
		}, 7},
		{"flood-delay-11", func(t *testing.T) dynet.Dynamic {
			d, err := dynet.NewFloodDelaying(11, 0)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net(t)
			count, rounds, err := Count(net, 0, 3*tc.n+10, seqEngine())
			if err != nil {
				t.Fatalf("Count: %v", err)
			}
			if count != tc.n {
				t.Fatalf("count = %d, want %d", count, tc.n)
			}
			if rounds > 3*tc.n+8 {
				t.Fatalf("rounds = %d exceeds the 3n+8 = %d linear bound", rounds, 3*tc.n+8)
			}
		})
	}
}

func TestCountExactRandomChurn(t *testing.T) {
	for _, n := range []int{4, 6, 9} {
		for seed := int64(1); seed <= 3; seed++ {
			net, err := dynet.NewTInterval(n, 1, 0.4, seed)
			if err != nil {
				t.Fatal(err)
			}
			count, rounds, err := Count(net, 0, 3*n+10, seqEngine())
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if count != n {
				t.Fatalf("n=%d seed=%d: count = %d", n, seed, count)
			}
			if rounds > 3*n+8 {
				t.Fatalf("n=%d seed=%d: rounds = %d exceeds 3n+8", n, seed, rounds)
			}
		}
	}
}

// TestCountLinearSlope is the acceptance-criteria check: on
// 1-interval-connected instances with n ∈ {10, 50, 100, 364} the protocol
// terminates with the exact count within 3n+8 rounds, and the measured
// rounds grow linearly — the per-node slope stays within a fixed constant
// band across a 36x size range, which a super-linear algorithm cannot do.
func TestCountLinearSlope(t *testing.T) {
	sizes := []int{10, 50, 100, 364}
	slopes := make([]float64, 0, len(sizes))
	for _, n := range sizes {
		net := cycleNet(t, n)
		count, rounds, err := Count(net, 0, 3*n+10, seqEngine())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if count != n {
			t.Fatalf("n=%d: count = %d", n, count)
		}
		if rounds > 3*n+8 {
			t.Fatalf("n=%d: rounds = %d exceeds the linear bound 3n+8 = %d", n, rounds, 3*n+8)
		}
		slope := float64(rounds) / float64(n)
		slopes = append(slopes, slope)
		t.Logf("n=%4d: %4d rounds (slope %.2f)", n, rounds, slope)
	}
	for i, s := range slopes {
		if s < 1 || s > 3.2 {
			t.Fatalf("n=%d: slope %.2f outside the linear band [1, 3.2]", sizes[i], s)
		}
	}
}

// TestCountEngineIndependent is the satellite regression: a receiver
// reduces its inbox to a class multiset and the canonical ordering is
// id-free, so the sequential and sharded engines must produce the
// identical (count, rounds) on the same network.
func TestCountEngineIndependent(t *testing.T) {
	ctx := context.Background()
	engines := map[string]Runner{
		"sequential": runtime.SequentialEngine(ctx),
		"sharded":    runtime.ShardedEngine(ctx),
	}
	nets := map[string]func(t *testing.T) dynet.Dynamic{
		"cycle-24": func(t *testing.T) dynet.Dynamic { return cycleNet(t, 24) },
		"churn-8": func(t *testing.T) dynet.Dynamic {
			net, err := dynet.NewTInterval(8, 1, 0.4, 7)
			if err != nil {
				t.Fatal(err)
			}
			return net
		},
		"flood-delay-13": func(t *testing.T) dynet.Dynamic {
			d, err := dynet.NewFloodDelaying(13, 0)
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	for netName, mk := range nets {
		t.Run(netName, func(t *testing.T) {
			type outcome struct{ count, rounds int }
			var want outcome
			first := true
			for name, run := range engines {
				net := mk(t)
				count, rounds, err := Count(net, 0, 200, run)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := outcome{count, rounds}
				if first {
					want, first = got, false
					continue
				}
				if got != want {
					t.Fatalf("%s: (count=%d, rounds=%d) differs from %+v", name, got.count, got.rounds, want)
				}
			}
		})
	}
}

func TestCountErrors(t *testing.T) {
	net := cycleNet(t, 5)
	if _, _, err := Count(net, 9, 40, seqEngine()); err == nil {
		t.Fatal("out-of-range leader accepted")
	}
	if _, _, err := Count(net, 0, 0, seqEngine()); err == nil {
		t.Fatal("zero round budget accepted")
	}
	// Disconnected network: two isolated nodes.
	if _, _, err := Count(dynet.NewStatic(graph.New(2)), 0, 10, seqEngine()); err == nil {
		t.Fatal("disconnected network accepted")
	}
	// Budget too small to terminate.
	if _, rounds, err := Count(net, 0, 3, seqEngine()); err == nil {
		t.Fatal("expected budget exhaustion")
	} else if rounds != 3 {
		t.Fatalf("budget exhaustion after %d rounds, want 3", rounds)
	}
}

func TestTreeInterning(t *testing.T) {
	tr := New()
	leaderRoot := tr.Root(true)
	otherRoot := tr.Root(false)
	if leaderRoot == otherRoot {
		t.Fatal("leader and non-leader roots interned identically")
	}
	if tr.Root(true) != leaderRoot {
		t.Fatal("re-interning the leader root produced a new id")
	}
	if tr.Root(false) != otherRoot || tr.Hash(leaderRoot) == tr.Hash(otherRoot) {
		t.Fatal("Leader bit mismatch on roots")
	}
	a := tr.Extend(leaderRoot, []RedEdge{{Class: otherRoot, Mult: 2}})
	b := tr.Extend(leaderRoot, []RedEdge{{Class: otherRoot, Mult: 2}})
	if a != b {
		t.Fatal("identical extensions interned to different ids")
	}
	c := tr.Extend(leaderRoot, []RedEdge{{Class: otherRoot, Mult: 3}})
	if c == a {
		t.Fatal("different multiplicities interned to the same id")
	}
	if lv, parent, red := tr.Info(a); lv != 1 || parent != leaderRoot || len(red) != 1 || red[0].Mult != 2 {
		t.Fatalf("Info(a) = (%d, %d, %v)", lv, parent, red)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Hash(a) == tr.Hash(c) {
		t.Fatal("structural hashes collide on distinct classes")
	}
	// Structural hashes are id-free: a fresh tree interning the same
	// structure in a different order produces identical hashes.
	tr2 := New()
	o2 := tr2.Root(false)
	l2 := tr2.Root(true)
	a2 := tr2.Extend(l2, []RedEdge{{Class: o2, Mult: 2}})
	if tr2.Hash(a2) != tr.Hash(a) || tr2.Hash(l2) != tr.Hash(leaderRoot) || tr2.Hash(o2) != tr.Hash(otherRoot) {
		t.Fatal("structural hash depends on interning order")
	}

	_, _, infoA := tr.Info(a)
	keptA := slices.Clone(infoA)
	// One parent with more children than a node chunk holds: each child
	// is found again among its siblings, in reverse order.
	kids := make([]int32, 2000)
	kidRed := func(i int) []RedEdge {
		return []RedEdge{{Class: leaderRoot, Mult: 1}, {Class: otherRoot, Mult: int32(i + 1)}}
	}
	for i := range kids {
		kids[i] = tr.Extend(otherRoot, kidRed(i))
	}
	for i := len(kids) - 1; i >= 0; i-- {
		if id := tr.Extend(otherRoot, kidRed(i)); id != kids[i] {
			t.Fatalf("re-extending child %d gave id %d, want %d", i, id, kids[i])
		}
	}
	// A red multiset longer than an arena chunk, then a short one: both
	// read back exactly.
	level1 := append([]int32{a, c}, kids...)
	for i := 0; len(level1) < 5000; i++ {
		level1 = append(level1, tr.Extend(leaderRoot, []RedEdge{{Class: otherRoot, Mult: int32(4 + i)}}))
	}
	long := make([]RedEdge, len(level1))
	for i, id := range level1 {
		long[i] = RedEdge{Class: id, Mult: int32(1 + i%7)}
	}
	short := []RedEdge{{Class: kids[0], Mult: 2}}
	longID := tr.Extend(kids[0], long)
	shortID := tr.Extend(kids[1], short)
	for _, tc := range []struct {
		id, parent int32
		red        []RedEdge
	}{{longID, kids[0], long}, {shortID, kids[1], short}} {
		if lv, parent, red := tr.Info(tc.id); lv != 2 || parent != tc.parent || !slices.Equal(red, tc.red) {
			t.Fatalf("Info(%d) = (%d, %d, %d edges), want (2, %d, %d edges as interned)",
				tc.id, lv, parent, len(red), tc.parent, len(tc.red))
		}
	}
	// An Info slice taken before all that interning keeps its contents.
	if !slices.Equal(infoA, keptA) {
		t.Fatalf("Info(a) changed under later interning: %v, was %v", infoA, keptA)
	}
	if want := 2 + len(level1) + 2; tr.Len() != want {
		t.Fatalf("Len = %d, want %d", tr.Len(), want)
	}
}

func ExampleCount() {
	g, _ := graph.Cycle(10)
	count, rounds, _ := Count(dynet.NewStatic(g), 0, 50, runtime.RunSequential)
	fmt.Println(count, rounds <= 38)
	// Output:
	// 10 true
}
