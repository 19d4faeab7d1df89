package histtree

import (
	"math/rand"
	"testing"
)

// buildChainLeader builds a synthetic stable pair at levels (1, 2): k
// level-1 classes in a chain X[0] — X[1] — ... — X[k-1], X[0] being the
// leader's class, each with a unique level-2 child. The child of X[i]
// heard fwd[i] messages from X[i+1] members and back[i-1] messages from
// X[i-1] members, so the solve propagates |X[i+1]| = |X[i]|·fwd[i]/back[i].
// The returned leader has classified the pair as stable and is ready for
// solveFast/solveRat.
func buildChainLeader(t *testing.T, fwd, back []int32) *leaderProc {
	t.Helper()
	if len(fwd) != len(back) {
		t.Fatal("fwd and back must pair up per link")
	}
	k := len(fwd) + 1
	tr := New()
	l0 := tr.Root(true)
	a0 := tr.Root(false)
	xs := make([]int32, k)
	xs[0] = tr.Extend(l0, []RedEdge{{Class: a0, Mult: 1}})
	for i := 1; i < k; i++ {
		// Distinct heard multisets keep the level-1 classes distinct.
		xs[i] = tr.Extend(a0, []RedEdge{{Class: a0, Mult: int32(i)}})
	}
	for i := 0; i < k; i++ {
		var red []RedEdge
		if i > 0 {
			red = append(red, RedEdge{Class: xs[i-1], Mult: back[i-1]})
		}
		if i < k-1 {
			red = append(red, RedEdge{Class: xs[i+1], Mult: fwd[i]})
		}
		tr.Extend(xs[i], red)
	}
	l := newLeaderProc(tr)
	for id := int32(1); id < int32(tr.Len()); id++ {
		l.walk(id)
	}
	l.own = append(l.own, xs[0])
	if st := l.classify(1); st != pairStable {
		t.Fatalf("synthetic chain not classified stable: %v", st)
	}
	return l
}

// TestSolveFastMatchesRatDifferential pins solveFast bit-for-bit against
// the big.Rat reference on randomized chains: integral chains (both must
// return the identical count), non-integral and one-way-edge chains (both
// must reject), and large-value chains near the int64 range. Whenever
// solveFast does not spill, its (n, ok) must equal solveRat's exactly.
func TestSolveFastMatchesRatDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 80; c++ {
		links := 1 + rng.Intn(4)
		fwd := make([]int32, links)
		back := make([]int32, links)
		for i := range fwd {
			g := int32(1 + rng.Intn(1<<16))
			f := int32(1 + rng.Intn(8))
			fwd[i], back[i] = f*g, g // integral growth factor f, gcd g
		}
		switch c % 4 {
		case 1: // non-integral link: some cardinality gets denominator 2
			fwd[rng.Intn(links)], back[rng.Intn(links)] = 3, 2
		case 2: // one-way edge: no back multiplicity
			back[links-1] = 0
		}
		l := buildChainLeader(t, fwd, back)
		nF, okF := l.solveFast(1)
		nR, okR := l.solveRat(1)
		if nF == -1 {
			continue // spill; covered by TestSolveSpillFallback
		}
		if nF != nR || okF != okR {
			t.Fatalf("case %d (fwd=%v back=%v): solveFast=(%d,%v) solveRat=(%d,%v)",
				c, fwd, back, nF, okF, nR, okR)
		}
	}
}

func TestSolveLargeIntegralChain(t *testing.T) {
	// Cards 1, 2^20, 2^40, 2^60: near the int64 range but never over it.
	l := buildChainLeader(t, []int32{1 << 20, 1 << 20, 1 << 20}, []int32{1, 1, 1})
	want := 1 + 1<<20 + 1<<40 + 1<<60
	nF, okF := l.solveFast(1)
	nR, okR := l.solveRat(1)
	if nF != want || !okF {
		t.Fatalf("solveFast = (%d,%v), want (%d,true)", nF, okF, want)
	}
	if nR != want || !okR {
		t.Fatalf("solveRat = (%d,%v), want (%d,true)", nR, okR, want)
	}
}

// TestSolveSpillFallback forces the int64 fast path to overflow on an
// input whose exact answer still fits: the last link multiplies a 2^40
// cardinality by 3·2^22 before dividing by 3, so the int64 intermediate
// overflows (solveFast must signal -1) while the true cardinality, 2^62,
// and the total are representable — the big.Rat fallback must deliver
// them, and the public solve() must transparently return its result.
func TestSolveSpillFallback(t *testing.T) {
	l := buildChainLeader(t, []int32{1 << 20, 1 << 20, 3 << 22}, []int32{1, 1, 3})
	want := 1 + 1<<20 + 1<<40 + 1<<62
	if n, ok := l.solveFast(1); n != -1 || ok {
		t.Fatalf("solveFast = (%d,%v), want overflow signal (-1,false)", n, ok)
	}
	if n, ok := l.solveRat(1); n != want || !ok {
		t.Fatalf("solveRat = (%d,%v), want (%d,true)", n, ok, want)
	}
	if n, ok := l.solve(1); n != want || !ok {
		t.Fatalf("solve = (%d,%v), want (%d,true) via spill", n, ok, want)
	}
	// The spilled result is cached like any other.
	if n, ok := l.solve(1); n != want || !ok {
		t.Fatalf("cached solve = (%d,%v), want (%d,true)", n, ok, want)
	}
}

// TestSolveQueueCapacityReuse guards the index-cursor BFS: the scratch
// queue must keep one backing array across repeated solves instead of
// re-slicing its head away (the l.queue = l.queue[1:] pattern leaks the
// front of the array every pop and forces a fresh allocation per solve).
func TestSolveQueueCapacityReuse(t *testing.T) {
	l := buildChainLeader(t, []int32{2, 3, 4, 5}, []int32{1, 1, 1, 1})
	if n, ok := l.solveFast(1); !ok {
		t.Fatalf("solveFast failed: (%d,%v)", n, ok)
	}
	if len(l.queue) != 5 {
		t.Fatalf("queue holds %d solved classes, want 5", len(l.queue))
	}
	c0 := cap(l.queue)
	p0 := &l.queue[0]
	for i := 0; i < 200; i++ {
		l.solveFast(1)
	}
	if cap(l.queue) != c0 || &l.queue[0] != p0 {
		t.Fatalf("queue backing array not reused: cap %d -> %d", c0, cap(l.queue))
	}
}
