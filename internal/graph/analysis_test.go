package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBFSDistancesPath(t *testing.T) {
	g := Path(5)
	dist := g.BFSDistances(0)
	for v, d := range dist {
		if d != v {
			t.Fatalf("dist[%d] = %d, want %d", v, d, v)
		}
	}
}

func TestBFSDistancesDisconnected(t *testing.T) {
	g := New(4)
	_ = g.AddEdge(0, 1)
	dist := g.BFSDistances(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("disconnected nodes should be Unreachable, got %v", dist)
	}
}

func TestBFSDistancesBadSource(t *testing.T) {
	g := New(3)
	dist := g.BFSDistances(7)
	for _, d := range dist {
		if d != Unreachable {
			t.Fatalf("out-of-range source should leave all Unreachable, got %v", dist)
		}
	}
}

func TestConnected(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"path", Path(5), true},
		{"single", New(1), true},
		{"two isolated", New(2), false},
		{"complete", Complete(4), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.Connected(); got != tc.want {
				t.Fatalf("Connected() = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := Path(5)
	if ecc := g.Eccentricity(0); ecc != 4 {
		t.Fatalf("Eccentricity(0) = %d, want 4", ecc)
	}
	if ecc := g.Eccentricity(2); ecc != 2 {
		t.Fatalf("Eccentricity(2) = %d, want 2", ecc)
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("Diameter() = %d, want 4", d)
	}
	disc := New(3)
	if d := disc.Diameter(); d != Unreachable {
		t.Fatalf("Diameter of disconnected = %d, want Unreachable", d)
	}
}

func TestStarGenerators(t *testing.T) {
	g, err := Star(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(2) != 5 {
		t.Fatalf("center degree = %d, want 5", g.Degree(2))
	}
	for v := 0; v < 6; v++ {
		if v != 2 && g.Degree(NodeID(v)) != 1 {
			t.Fatalf("leaf %d degree = %d, want 1", v, g.Degree(NodeID(v)))
		}
	}
	if _, err := Star(3, 9); err == nil {
		t.Fatal("Star with out-of-range center should error")
	}
	empty, err := Star(0, 0)
	if err != nil || empty.N() != 0 {
		t.Fatalf("Star(0,0) = (%v, %v)", empty, err)
	}
}

func TestCycle(t *testing.T) {
	g, err := Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if g.Degree(NodeID(v)) != 2 {
			t.Fatalf("cycle node %d degree = %d, want 2", v, g.Degree(NodeID(v)))
		}
	}
	if _, err := Cycle(2); err == nil {
		t.Fatal("Cycle(2) should error")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(5)
	if g.M() != 10 {
		t.Fatalf("K5 has %d edges, want 10", g.M())
	}
	if g.Diameter() != 1 {
		t.Fatalf("K5 diameter = %d, want 1", g.Diameter())
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(30) + 1
		g := RandomConnected(n, rng.Float64()*0.5, rng)
		if !g.Connected() {
			t.Fatalf("trial %d: RandomConnected(%d) disconnected", trial, n)
		}
	}
}

func TestDOT(t *testing.T) {
	g := MustFromEdges(2, []Edge{{0, 1}})
	dot := g.DOT("fig 1", 0)
	for _, want := range []string{"graph fig_1 {", "n0 [shape=doublecircle];", "n1 [shape=circle];", "n0 -- n1;"} {
		if !contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
	if d := g.DOT("", 0); !contains(d, "graph G {") {
		t.Fatalf("empty name should render as G:\n%s", d)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: distance is symmetric on undirected graphs, and satisfies the
// triangle inequality through any intermediate node.
func TestDistanceMetricProperties(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%10) + 3
		rng := rand.New(rand.NewSource(seed))
		g := RandomConnected(n, 0.25, rng)
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		w := NodeID(rng.Intn(n))
		du, dv, dw := g.BFSDistances(u), g.BFSDistances(v), g.BFSDistances(w)
		if dv[u] != du[v] {
			return false
		}
		return du[v] <= du[w]+dw[v]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
