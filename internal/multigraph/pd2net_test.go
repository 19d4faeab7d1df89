package multigraph

import (
	"fmt"
	"sync"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

var _ dynet.CSRDynamic = (*PD2Net)(nil)

// lemma1Edges is the reference topology of round r for a network with a
// static chain of chainLen nodes, read off the label schedule with
// LabelsAt and numbered independently of the builder: the leader is node
// 0, chain node i is node i, the relay of label j is node chainLen+j and
// W-node v is node chainLen+k+1+v. The leader, the chain nodes and the
// relays form the static path and star leader—c₁—…—c_m—{relays}; the relay
// of label j touches W-node v exactly when j ∈ LabelsAt(v, r). Rounds past
// the horizon repeat the final round.
func lemma1Edges(t *testing.T, m *Multigraph, chainLen, r int) map[graph.Edge]bool {
	t.Helper()
	r = min(r, m.Horizon()-1)
	want := make(map[graph.Edge]bool)
	for i := 1; i <= chainLen; i++ {
		want[graph.Edge{U: graph.NodeID(i - 1), V: graph.NodeID(i)}] = true
	}
	relay := func(j int) graph.NodeID { return graph.NodeID(chainLen + j) }
	for j := 1; j <= m.K(); j++ {
		want[graph.Edge{U: graph.NodeID(chainLen), V: relay(j)}] = true
	}
	for v := 0; v < m.W(); v++ {
		s, err := m.LabelsAt(v, r)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= m.K(); j++ {
			if s.Has(j) {
				want[graph.Edge{U: relay(j), V: graph.NodeID(chainLen + m.K() + 1 + v)}] = true
			}
		}
	}
	return want
}

// sameEdges checks that the n-node topology listed by neighbors is exactly
// the edge set want, with every row strictly ascending.
func sameEdges(t *testing.T, label string, n int, neighbors func(graph.NodeID) []graph.NodeID, want map[graph.Edge]bool) {
	t.Helper()
	seen := 0
	for v := 0; v < n; v++ {
		row := neighbors(graph.NodeID(v))
		for i, u := range row {
			if !want[graph.Edge{U: graph.NodeID(v), V: u}.Canonical()] {
				t.Fatalf("%s: edge (%d,%d) not in the label schedule", label, v, u)
			}
			if i > 0 && row[i-1] >= u {
				t.Fatalf("%s: row %d is not ascending: %v", label, v, row)
			}
			seen++
		}
	}
	if seen != 2*len(want) {
		t.Fatalf("%s: %d adjacency entries, the label schedule has %d edges", label, seen, len(want))
	}
}

// TestPD2NetMatchesToPD2 checks both snapshot forms of the Lemma-1 network,
// with chains of 0, 1 and 3 nodes, against the edge rule read independently
// off the label schedule, past the horizon too; that ToPD2 serves the same
// network as ToPD2CSR; and that Snapshot serves one graph past the horizon.
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
		for _, chainLen := range []int{0, 1, 3} {
			name := fmt.Sprintf("k=%d w=%d chain=%d", tc.k, tc.w, chainLen)
			net, layout, err := m.ToPD2Chain(chainLen)
			if err != nil {
				t.Fatal(err)
			}
			var d dynet.Dynamic
			if chainLen == 0 {
				if net, layout, err = m.ToPD2CSR(); err != nil {
					t.Fatal(err)
				}
				if d, _, err = m.ToPD2(); err != nil {
					t.Fatal(err)
				}
				if _, ok := d.(*PD2Net); !ok {
					t.Fatalf("ToPD2 returned %T, want *PD2Net", d)
				}
			}
			if n := 1 + chainLen + tc.k + tc.w; net.N() != n || layout.N() != n {
				t.Fatalf("%s: N %d, layout %d, want %d", name, net.N(), layout.N(), n)
			}
			if layout.Leader != 0 || len(layout.Chain) != chainLen || len(layout.V1) != tc.k || len(layout.V2) != tc.w {
				t.Fatalf("%s: layout %+v", name, layout)
			}
			for i, c := range layout.Chain {
				if c != graph.NodeID(1+i) {
					t.Fatalf("%s: chain node %d is %d", name, i, c)
				}
			}
			for j, relay := range layout.V1 {
				if relay != graph.NodeID(chainLen+1+j) {
					t.Fatalf("%s: relay %d is %d", name, j+1, relay)
				}
			}
			for v, w := range layout.V2 {
				if w != graph.NodeID(chainLen+tc.k+1+v) {
					t.Fatalf("%s: W-node %d is %d", name, v, w)
				}
			}
			var final *graph.Graph
			for r := 0; r < tc.horizon+3; r++ {
				want := lemma1Edges(t, m, chainLen, r)
				c := net.SnapshotCSR(r)
				if err := c.Validate(); err != nil {
					t.Fatalf("%s round %d: invalid CSR: %v", name, r, err)
				}
				sameEdges(t, name+" SnapshotCSR", c.N(), c.Neighbors, want)
				g := net.Snapshot(r)
				sameEdges(t, name+" Snapshot", g.N(), g.Neighbors, want)
				// The map graph shares nothing with the net's CSR
				// scratch: rebuilding two other rounds leaves it intact.
				net.SnapshotCSR(r + 1)
				net.SnapshotCSR(r + 2)
				sameEdges(t, name+" Snapshot after SnapshotCSR", g.N(), g.Neighbors, want)
				if r == tc.horizon-1 {
					final = g
				} else if r >= tc.horizon && g != final {
					t.Fatalf("%s: round %d rebuilt the final round's graph", name, r)
				}
				if d != nil {
					g = d.Snapshot(r)
					sameEdges(t, name+" ToPD2", g.N(), g.Neighbors, want)
				}
			}
		}
	}
}

func TestPD2ChainErrors(t *testing.T) {
	m, err := Random(2, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.ToPD2Chain(-1); err == nil {
		t.Fatal("negative chain length accepted")
	}
	if _, _, err := newOwned(2, 0, 0, nil).ToPD2Chain(2); err == nil {
		t.Fatal("zero-horizon multigraph transformed")
	}
}

// TestPD2NetSnapshotSharedPastHorizon checks that every round from the
// last scheduled one on returns one graph, also when many goroutines ask
// at once while another rebuilds SnapshotCSR.
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
	// Snapshot shares no scratch with SnapshotCSR, whose one caller may
	// run meanwhile.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < m.Horizon()+20; r++ {
			net.SnapshotCSR(r)
		}
	}()
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
	m := newOwned(2, 0, 0, nil)
	if _, _, err := m.ToPD2CSR(); err == nil {
		t.Fatal("zero-horizon multigraph transformed")
	}
}

// TestPD2NetSnapshotReuse checks PD2Net's pointer rule on chains 0…3, in
// one larger shape and those TestPD2NetMatchesToPD2 builds, over rounds
// 0…horizon+3 each asked twice and then round 0 again: SnapshotCSR returns
// the previous call's pointer exactly when the clamped round repeats,
// which is what lets the round engine skip checking a repeated pointer. It
// also checks that a steady-state sweep does not allocate.
func TestPD2NetSnapshotReuse(t *testing.T) {
	for _, tc := range []struct {
		k, w, horizon int
		seed          int64
	}{
		{2, 32, 6, 9},
		{1, 4, 3, 1},
		{2, 7, 5, 2},
		{3, 12, 4, 3},
		{2, 1, 1, 4},
	} {
		m, err := Random(tc.k, tc.w, tc.horizon, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		h := m.Horizon()
		var rounds []int
		for r := 0; r <= h+3; r++ {
			rounds = append(rounds, r, r)
		}
		rounds = append(rounds, 0)
		for chainLen := 0; chainLen <= 3; chainLen++ {
			net, _, err := m.ToPD2Chain(chainLen)
			if err != nil {
				t.Fatal(err)
			}
			var prev *graph.CSR
			for i, r := range rounds {
				c := net.SnapshotCSR(r)
				if i > 0 {
					repeated := min(r, h-1) == min(rounds[i-1], h-1)
					if (c == prev) != repeated {
						t.Fatalf("k=%d w=%d chain %d: round %d after round %d: same pointer %v, clamped round repeats %v",
							tc.k, tc.w, chainLen, r, rounds[i-1], c == prev, repeated)
					}
				}
				prev = c
			}
			// A steady-state sweep must not allocate: this is the property
			// that lets the sharded engine run a million-node round loop
			// without per-round garbage from the topology side.
			allocs := testing.AllocsPerRun(50, func() {
				for r := 0; r < h; r++ {
					net.SnapshotCSR(r)
				}
			})
			if allocs > 0 {
				t.Fatalf("k=%d w=%d chain %d: steady-state SnapshotCSR allocates %.1f/sweep, want 0",
					tc.k, tc.w, chainLen, allocs)
			}
		}
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
