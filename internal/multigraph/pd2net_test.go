package multigraph

import (
	"sync"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

var _ dynet.CSRDynamic = (*PD2Net)(nil)

// lemma1Edges is the reference topology of round r, read off the label
// schedule with LabelsAt: the leader touches every relay, and the relay of
// label j touches W-node v exactly when j ∈ LabelsAt(v, r). Rounds past
// the horizon repeat the final round.
func lemma1Edges(t *testing.T, m *Multigraph, l *PD2Layout, r int) map[graph.Edge]bool {
	t.Helper()
	r = min(r, m.Horizon()-1)
	want := make(map[graph.Edge]bool)
	for _, relay := range l.V1 {
		want[graph.Edge{U: l.Leader, V: relay}.Canonical()] = true
	}
	for v := 0; v < m.W(); v++ {
		s, err := m.LabelsAt(v, r)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= m.K(); j++ {
			if s.Has(j) {
				want[graph.Edge{U: l.V1[j-1], V: l.V2[v]}.Canonical()] = true
			}
		}
	}
	return want
}

// sameEdges checks that the n-node topology listed by neighbors is exactly
// the edge set want.
func sameEdges(t *testing.T, label string, n int, neighbors func(graph.NodeID) []graph.NodeID, want map[graph.Edge]bool) {
	t.Helper()
	seen := 0
	for v := 0; v < n; v++ {
		for _, u := range neighbors(graph.NodeID(v)) {
			if !want[graph.Edge{U: graph.NodeID(v), V: u}.Canonical()] {
				t.Fatalf("%s: edge (%d,%d) not in the label schedule", label, v, u)
			}
			seen++
		}
	}
	if seen != 2*len(want) {
		t.Fatalf("%s: %d adjacency entries, the label schedule has %d edges", label, seen, len(want))
	}
}

// TestPD2NetMatchesToPD2 checks both snapshot forms of the Lemma-1 network
// against the edge rule read independently off the label schedule, past
// the horizon too, and that ToPD2 serves the same network.
func TestPD2NetMatchesToPD2(t *testing.T) {
	for _, tc := range []struct {
		k, w, horizon int
		seed          int64
	}{
		{1, 4, 3, 1},
		{2, 7, 5, 2},
		{3, 12, 4, 3},
		{2, 1, 1, 4},
	} {
		m, err := Random(tc.k, tc.w, tc.horizon, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		net, layout, err := m.ToPD2CSR()
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := m.ToPD2()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := d.(*PD2Net); !ok {
			t.Fatalf("ToPD2 returned %T, want *PD2Net", d)
		}
		if net.N() != 1+tc.k+tc.w || layout.N() != net.N() {
			t.Fatalf("k=%d w=%d: N %d, layout %d", tc.k, tc.w, net.N(), layout.N())
		}
		for r := 0; r < tc.horizon+2; r++ {
			want := lemma1Edges(t, m, layout, r)
			c := net.SnapshotCSR(r)
			if err := c.Validate(); err != nil {
				t.Fatalf("round %d: invalid CSR: %v", r, err)
			}
			sameEdges(t, "SnapshotCSR", c.N(), c.Neighbors, want)
			g := net.Snapshot(r)
			sameEdges(t, "Snapshot", g.N(), g.Neighbors, want)
			g = d.Snapshot(r)
			sameEdges(t, "ToPD2", g.N(), g.Neighbors, want)
		}
	}
}

// TestPD2NetSnapshotSharedPastHorizon checks that every round from the
// last scheduled one on returns one graph, also when many goroutines ask
// at once.
func TestPD2NetSnapshotSharedPastHorizon(t *testing.T) {
	m, err := Random(2, 9, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := m.ToPD2CSR()
	if err != nil {
		t.Fatal(err)
	}
	last := net.Snapshot(m.Horizon() - 1)
	for r := m.Horizon(); r < m.Horizon()+10; r++ {
		if net.Snapshot(r) != last {
			t.Fatalf("round %d rebuilt the final round's graph", r)
		}
	}
	if net.Snapshot(0) == last {
		t.Fatal("round 0 shares the final round's graph")
	}

	// Concurrent callers, starting from a cache that holds round 0.
	const callers = 8
	got := make([][]*graph.Graph, callers)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := m.Horizon() - 1; r < m.Horizon()+20; r++ {
				got[c] = append(got[c], net.Snapshot(r))
			}
		}()
	}
	wg.Wait()
	first := got[0][0]
	for c := range got {
		for i, g := range got[c] {
			if g != first {
				t.Fatalf("caller %d, round %d: a second graph for the final round", c, m.Horizon()-1+i)
			}
		}
	}
	if first.Degree(0) != m.K() {
		t.Fatalf("shared graph gives the leader degree %d, want %d", first.Degree(0), m.K())
	}
}

func TestPD2NetZeroHorizon(t *testing.T) {
	m := newOwned(2, 0, nil)
	if _, _, err := m.ToPD2CSR(); err == nil {
		t.Fatal("zero-horizon multigraph transformed")
	}
}

func TestPD2NetSnapshotReuse(t *testing.T) {
	m, err := Random(2, 32, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := m.ToPD2CSR()
	if err != nil {
		t.Fatal(err)
	}
	// Same round twice returns the identical cached snapshot.
	a := net.SnapshotCSR(3)
	if b := net.SnapshotCSR(3); a != b {
		t.Fatal("repeated SnapshotCSR of the same round rebuilt")
	}
	// Warm up every round, then a steady-state sweep must not allocate:
	// this is the property that lets the sharded engine run a million-node
	// round loop without per-round garbage from the topology side.
	for r := 0; r < 6; r++ {
		net.SnapshotCSR(r)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for r := 0; r < 6; r++ {
			net.SnapshotCSR(r)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state SnapshotCSR allocates %.1f/sweep, want 0", allocs)
	}
}

func TestSatAddIntSaturates(t *testing.T) {
	const maxInt = int(^uint(0) >> 1)
	if got := satAddInt(maxInt-1, 1); got != maxInt {
		t.Fatalf("satAddInt(maxInt-1, 1) = %d", got)
	}
	if got := satAddInt(maxInt, 1); got != maxInt {
		t.Fatalf("satAddInt(maxInt, 1) = %d", got)
	}
	if got := satAddInt(3, 4); got != 7 {
		t.Fatalf("satAddInt(3, 4) = %d", got)
	}
}
