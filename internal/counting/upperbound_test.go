package counting

import (
	"math/rand"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

func TestUpperBoundStar(t *testing.T) {
	// Star with leader at the center: depth 1, degree bound n-1, so the
	// bound 1 + (n-1) is exact.
	for _, n := range []int{2, 5, 12} {
		star, err := graph.Star(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := UpperBoundCount(dynet.NewStatic(star), 0, n-1, 4, runtime.RunSequential)
		if err != nil {
			t.Fatal(err)
		}
		if res.Depth != 1 {
			t.Fatalf("n=%d: depth = %d, want 1", n, res.Depth)
		}
		if res.Bound != n {
			t.Fatalf("n=%d: bound = %d, want exactly %d", n, res.Bound, n)
		}
	}
}

func TestUpperBoundPath(t *testing.T) {
	// Path with leader at one end: depth n-1, degree bound 2, bound
	// 1 + 2 + 4 + ... = 2^n - 1 >= n but far from tight — the looseness
	// [15]-style bounds pay.
	const n = 5
	res, err := UpperBoundCount(dynet.NewStatic(graph.Path(n)), 0, 2, 2*n, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != n-1 {
		t.Fatalf("depth = %d, want %d", res.Depth, n-1)
	}
	if res.Bound < n {
		t.Fatalf("bound %d below true size %d", res.Bound, n)
	}
	if res.Bound != 31 { // 1+2+4+8+16
		t.Fatalf("bound = %d, want 31", res.Bound)
	}
}

func TestUpperBoundSoundOnRandomStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(15) + 2
		g := graph.RandomConnected(n, 0.3, rng)
		maxDeg := 0
		for v := 0; v < n; v++ {
			if d := g.Degree(graph.NodeID(v)); d > maxDeg {
				maxDeg = d
			}
		}
		res, err := UpperBoundCount(dynet.NewStatic(g), 0, maxDeg, 3*n, runtime.RunSequential)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bound < n {
			t.Fatalf("trial %d: UNSOUND bound %d < n=%d (depth %d, maxDeg %d)",
				trial, res.Bound, n, res.Depth, maxDeg)
		}
	}
}

func TestUpperBoundEnginesAgree(t *testing.T) {
	g := graph.Path(6)
	a, err := UpperBoundCount(dynet.NewStatic(g), 2, 2, 12, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UpperBoundCount(dynet.NewStatic(g), 2, 2, 12, runtime.RunSharded)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("engines disagree: %+v vs %+v", a, b)
	}
}

func TestUpperBoundValidation(t *testing.T) {
	g := dynet.NewStatic(graph.Complete(4))
	if _, err := UpperBoundCount(g, 9, 3, 5, runtime.RunSequential); err == nil {
		t.Fatal("bad leader should error")
	}
	if _, err := UpperBoundCount(g, 0, 0, 5, runtime.RunSequential); err == nil {
		t.Fatal("degree bound 0 should error")
	}
	if _, err := UpperBoundCount(g, 0, 3, 0, runtime.RunSequential); err == nil {
		t.Fatal("rounds 0 should error")
	}
	// A lying degree bound is rejected: K4 has degree 3, claim 2.
	if _, err := UpperBoundCount(g, 0, 2, 5, runtime.RunSequential); err == nil {
		t.Fatal("violated degree bound should error")
	}
}

func TestUpperBoundOverflow(t *testing.T) {
	// Deep path with a huge claimed degree bound overflows the geometric
	// sum and must error rather than return garbage.
	n := 64
	if _, err := UpperBoundCount(dynet.NewStatic(graph.Path(n)), 0, 1<<20, 2*n, runtime.RunSequential); err == nil {
		t.Fatal("overflow should error")
	}
}

func TestUpperBoundVsExactCounterLooseness(t *testing.T) {
	// On a restricted PD2 network the depth is 2, so the [15]-style bound
	// is 1 + d + d²; the exact leader-state counter gets the true size.
	// This quantifies the baseline's looseness.
	net, _, v2 := restrictedPD2(2, 20, 1)
	maxDeg := 0
	for r := 0; r < 10; r++ {
		g := net.Snapshot(r)
		for v := 0; v < net.N(); v++ {
			if d := g.Degree(graph.NodeID(v)); d > maxDeg {
				maxDeg = d
			}
		}
	}
	res, err := UpperBoundCount(net, 0, maxDeg, 10, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	truth := 1 + 2 + len(v2)
	if res.Bound < truth {
		t.Fatalf("unsound: bound %d < %d", res.Bound, truth)
	}
	if res.Bound == truth {
		t.Fatalf("upper bound should be loose here, got exact %d", res.Bound)
	}
}
