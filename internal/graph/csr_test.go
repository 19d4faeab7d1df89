package graph

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestCSRRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(20) + 1
		g := RandomConnected(n, 0.3, rng)
		c := g.CSR()
		if c.N() != n {
			t.Fatalf("CSR has %d nodes, want %d", c.N(), n)
		}
		if c.Total() != 2*g.M() {
			t.Fatalf("CSR total %d, want %d", c.Total(), 2*g.M())
		}
		for v := 0; v < n; v++ {
			if c.Degree(NodeID(v)) != g.Degree(NodeID(v)) {
				t.Fatalf("node %d: CSR degree %d, graph degree %d", v, c.Degree(NodeID(v)), g.Degree(NodeID(v)))
			}
			want := g.Neighbors(NodeID(v))
			got := c.Neighbors(NodeID(v))
			if len(got) != len(want) {
				t.Fatalf("node %d: CSR row %v, graph %v", v, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("node %d: CSR row %v, graph %v", v, got, want)
				}
			}
		}
	}
}

// TestCSRPointerRuleNoAlloc pins the rule the round engine's repeat check
// rests on: a graph has one CSR per state. A repeated call returns the same
// pointer without allocating; AddEdge and RemoveEdge each give a new pointer
// whose rows equal Neighbors and leave the old CSR as it was; and
// concurrent first calls on a fresh graph all return one pointer.
func TestCSRPointerRuleNoAlloc(t *testing.T) {
	g := RandomConnected(40, 0.2, rand.New(rand.NewSource(3)))
	c := g.CSR()
	if allocs := testing.AllocsPerRun(50, func() {
		if g.CSR() != c {
			t.Fatal("repeated CSR returned a new pointer")
		}
	}); allocs > 0 {
		t.Errorf("repeated CSR allocates %.1f times per call, want 0", allocs)
	}

	g = Path(6)
	prev := g.CSR()
	for _, edit := range []struct {
		name string
		do   func() error
	}{
		{"AddEdge(0, 3)", func() error { return g.AddEdge(0, 3) }},
		{"RemoveEdge(1, 2)", func() error { return g.RemoveEdge(1, 2) }},
	} {
		before := slices.Clone(prev.Nbrs)
		if err := edit.do(); err != nil {
			t.Fatal(err)
		}
		c := g.CSR()
		if c == prev {
			t.Fatalf("%s kept the CSR pointer", edit.name)
		}
		for v := 0; v < g.N(); v++ {
			if got, want := c.Neighbors(NodeID(v)), g.Neighbors(NodeID(v)); !slices.Equal(got, want) {
				t.Fatalf("after %s: CSR row %d = %v, Neighbors = %v", edit.name, v, got, want)
			}
		}
		if !slices.Equal(prev.Nbrs, before) {
			t.Fatalf("%s wrote the previous CSR", edit.name)
		}
		prev = c
	}

	const callers = 8
	fresh := Complete(30)
	got := make([]*CSR, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := range got {
		go func() {
			defer wg.Done()
			got[i] = fresh.CSR()
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c != got[0] || c != fresh.CSR() {
			t.Fatalf("first caller %d got its own CSR", i)
		}
	}
}

func TestCSREmpty(t *testing.T) {
	c := New(0).CSR()
	if c.N() != 0 || c.Total() != 0 {
		t.Fatalf("empty CSR: n=%d total=%d", c.N(), c.Total())
	}
	if got := c.Degree(0); got != 0 {
		t.Errorf("out-of-range degree = %d, want 0", got)
	}
	if nb := c.Neighbors(0); nb != nil {
		t.Errorf("out-of-range neighbors = %v, want nil", nb)
	}
	var zero CSR
	if zero.N() != 0 || zero.Total() != 0 {
		t.Errorf("zero CSR: n=%d total=%d", zero.N(), zero.Total())
	}
	// A zero-value CSR lacks even the single offset an empty graph carries;
	// it is not a valid snapshot.
	if err := zero.Validate(); err == nil {
		t.Error("zero-value CSR validated clean, want error")
	}
}

func TestCSRValidateRejectsCorruption(t *testing.T) {
	base := func() *CSR {
		return &CSR{Offsets: []int{0, 1, 3, 4}, Nbrs: []NodeID{1, 0, 2, 1}}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base CSR invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*CSR)
	}{
		{"offsets-short", func(c *CSR) { c.Offsets = c.Offsets[:3] }},
		{"offsets-nonzero-start", func(c *CSR) { c.Offsets[0] = 1 }},
		{"offsets-decreasing", func(c *CSR) { c.Offsets[2] = 0 }},
		{"total-mismatch", func(c *CSR) { c.Offsets[3] = 5 }},
		{"saturated-total", func(c *CSR) { c.Offsets[3] = math.MaxInt }},
		{"neighbor-out-of-range", func(c *CSR) { c.Nbrs[0] = 9 }},
		{"neighbor-negative", func(c *CSR) { c.Nbrs[0] = -1 }},
		{"self-loop", func(c *CSR) { c.Nbrs[0] = 0 }},
		{"row-unsorted", func(c *CSR) { c.Nbrs[1], c.Nbrs[2] = c.Nbrs[2], c.Nbrs[1] }},
		{"row-duplicate", func(c *CSR) { c.Nbrs[2] = 0 }},
	}
	for _, tc := range cases {
		c := base()
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt CSR", tc.name)
		}
	}
}

// TestCSRConnectedMatchesGraph checks the CSR search against
// Graph.Connected on connected and disconnected graphs, one scratch value
// serving every call, and that a reused scratch allocates nothing.
func TestCSRConnectedMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s BFSScratch
	check := func(g *Graph) {
		t.Helper()
		c := g.CSR()
		if got, want := c.Connected(&s), g.Connected(); got != want {
			t.Fatalf("CSR.Connected = %v, Graph.Connected = %v on %v", got, want, g)
		}
		if got := c.Connected(&BFSScratch{}); got != g.Connected() {
			t.Fatalf("CSR.Connected with fresh scratch = %v on %v", got, g)
		}
	}
	for _, n := range []int{0, 1, 2, 5} {
		check(New(n))
	}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(30) + 2
		g := RandomConnected(n, 0.1, rng)
		check(g)
		// Cutting every edge of one node disconnects it.
		v := NodeID(rng.Intn(n))
		for _, u := range g.Neighbors(v) {
			if err := g.RemoveEdge(v, u); err != nil {
				t.Fatal(err)
			}
		}
		check(g)
	}

	c := Path(64).CSR()
	c.Connected(&s)
	if allocs := testing.AllocsPerRun(50, func() { c.Connected(&s) }); allocs > 0 {
		t.Errorf("CSR.Connected with reused scratch allocates %.1f times per call, want 0", allocs)
	}
}
