package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestCSRRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(20) + 1
		g := RandomConnected(n, 0.3, rng)
		c, err := g.CSR(nil)
		if err != nil {
			t.Fatalf("CSR: %v", err)
		}
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

func TestCSRReuseNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomConnected(40, 0.2, rng)
	c, err := g.CSR(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := g.CSR(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state CSR conversion allocates %.1f times per call, want 0", allocs)
	}
}

func TestCSREmpty(t *testing.T) {
	c, err := New(0).CSR(nil)
	if err != nil {
		t.Fatal(err)
	}
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

// TestSatAddSaturates pins the overflow convention: size arithmetic near
// MaxInt saturates instead of wrapping, matching multigraph.HistoryCount.
func TestSatAddSaturates(t *testing.T) {
	cases := []struct {
		a, b, want int
	}{
		{0, 0, 0},
		{1, 2, 3},
		{math.MaxInt, 0, math.MaxInt},
		{math.MaxInt, 1, math.MaxInt},
		{math.MaxInt - 1, 1, math.MaxInt},
		{math.MaxInt - 1, 2, math.MaxInt},
		{math.MaxInt / 2, math.MaxInt/2 + 2, math.MaxInt},
	}
	for _, tc := range cases {
		if got := satAdd(tc.a, tc.b); got != tc.want {
			t.Errorf("satAdd(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
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
		c, err := g.CSR(nil)
		if err != nil {
			t.Fatal(err)
		}
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

	c, err := Path(64).CSR(nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Connected(&s)
	if allocs := testing.AllocsPerRun(50, func() { c.Connected(&s) }); allocs > 0 {
		t.Errorf("CSR.Connected with reused scratch allocates %.1f times per call, want 0", allocs)
	}
}
