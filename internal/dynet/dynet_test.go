package dynet

import (
	"errors"
	"math/rand"
	"testing"

	"anondyn/internal/graph"
)

func TestStatic(t *testing.T) {
	g := graph.Path(4)
	d := NewStatic(g)
	if d.N() != 4 {
		t.Fatalf("N = %d", d.N())
	}
	for r := 0; r < 5; r++ {
		if !d.Snapshot(r).Equal(g) {
			t.Fatalf("round %d snapshot differs", r)
		}
	}
}

func TestCyclic(t *testing.T) {
	g0 := graph.Path(3)
	g1 := graph.Complete(3)
	d, err := NewCyclic([]*graph.Graph{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Snapshot(0).Equal(g0) || !d.Snapshot(1).Equal(g1) || !d.Snapshot(2).Equal(g0) {
		t.Fatal("cyclic snapshots wrong")
	}
	if !d.Snapshot(-1).Equal(g0) {
		t.Fatal("negative round should clamp to 0")
	}
}

func TestCyclicErrors(t *testing.T) {
	if _, err := NewCyclic(nil); err == nil {
		t.Fatal("empty snapshot list should error")
	}
	if _, err := NewCyclic([]*graph.Graph{graph.Path(2), graph.Path(3)}); err == nil {
		t.Fatal("mismatched node counts should error")
	}
}

func TestFuncDynamic(t *testing.T) {
	d := NewFunc(3, func(r int) *graph.Graph {
		if r%2 == 0 {
			return graph.Path(3)
		}
		return graph.Complete(3)
	})
	if d.N() != 3 {
		t.Fatalf("N = %d", d.N())
	}
	if d.Snapshot(0).M() != 2 || d.Snapshot(1).M() != 3 {
		t.Fatal("func snapshots wrong")
	}
}

// TestTIntervalWindowOneIsRandomChurn pins a window-1 T-interval network
// to the per-round random-churn draw, written out here: round r (clamped to
// 0) draws graph.RandomConnected from the seed perturbed by r+1, so the
// draws stay fixed whatever form the type takes.
func TestTIntervalWindowOneIsRandomChurn(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 65} {
		for _, p := range []float64{0, 0.3, 1} {
			for _, seed := range []int64{1, 42, -7} {
				d, err := NewTInterval(n, 1, p, seed)
				if err != nil {
					t.Fatal(err)
				}
				for r := -1; r <= 5; r++ {
					rng := rand.New(rand.NewSource(seed ^ (int64(max(r, 0))+1)*0x5851F42D4C957F2D))
					want := graph.RandomConnected(n, p, rng)
					if got := d.Snapshot(r); !got.Equal(want) {
						t.Fatalf("n=%d p=%v seed=%d round %d: got %v, want %v", n, p, seed, r, got, want)
					}
				}
			}
		}
	}
}

func TestVerifyIntervalConnectivity(t *testing.T) {
	ok := NewStatic(graph.Path(4))
	if err := VerifyIntervalConnectivity(ok, 10); err != nil {
		t.Fatalf("connected dynamic graph rejected: %v", err)
	}
	bad := NewFunc(4, func(r int) *graph.Graph {
		if r == 3 {
			return graph.New(4) // no edges: disconnected
		}
		return graph.Path(4)
	})
	err := VerifyIntervalConnectivity(bad, 10)
	var ce *ConnectivityError
	if !errors.As(err, &ce) {
		t.Fatalf("want ConnectivityError, got %v", err)
	}
	if ce.Round != 3 {
		t.Fatalf("bad round = %d, want 3", ce.Round)
	}
}

func TestFloodTimeStaticPath(t *testing.T) {
	// On a static graph FloodTime equals the eccentricity of the source:
	// the node at distance k is informed in the receive phase of round
	// k-1, so the flood uses k rounds.
	d := NewStatic(graph.Path(5))
	got, err := FloodTime(d, 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("FloodTime = %d, want 4", got)
	}
	// From the middle: eccentricity 2, independent of the start round.
	got, err = FloodTime(d, 2, 7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("FloodTime from middle = %d, want 2", got)
	}
}

func TestFloodTimeStarCenter(t *testing.T) {
	// From the center of a star the flood completes within its first
	// round: 1 round total.
	star, err := graph.Star(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := NewStatic(star)
	got, err := FloodTime(d, 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("FloodTime from star center = %d, want 1", got)
	}
	// From a leaf: 2 rounds (leaf -> center in round 0, center -> rest in 1).
	got, err = FloodTime(d, 1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("FloodTime from star leaf = %d, want 2", got)
	}
}

func TestFloodTimeSingleNode(t *testing.T) {
	d := NewStatic(graph.New(1))
	got, err := FloodTime(d, 0, 0, 1)
	if err != nil || got != 0 {
		t.Fatalf("single node flood = (%d, %v), want (0, nil)", got, err)
	}
}

func TestFloodTimeErrors(t *testing.T) {
	d := NewStatic(graph.New(3)) // disconnected: flood never completes
	if _, err := FloodTime(d, 0, 0, 5); err == nil {
		t.Fatal("incomplete flood should error")
	}
	if _, err := FloodTime(d, 9, 0, 5); err == nil {
		t.Fatal("bad source should error")
	}
	if _, err := FloodTime(d, 0, -1, 5); err == nil {
		t.Fatal("negative start should error")
	}
}

func TestDynamicDiameterStaticPath(t *testing.T) {
	d := NewStatic(graph.Path(4))
	// Static graph: D equals the static diameter, 3.
	got, err := DynamicDiameter(d, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("D = %d, want 3", got)
	}
}

func TestDynamicDiameterCanExceedStaticDiameters(t *testing.T) {
	// Alternating stars: round r even is a star centered at 1, odd
	// centered at 2. Every snapshot has diameter 2 but a flood can be
	// delayed as the center moves.
	s1, err := graph.Star(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := graph.Star(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewCyclic([]*graph.Graph{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DynamicDiameter(d, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Every snapshot has static diameter 2, but the moving center can
	// stall a flood for an extra round.
	if got < 2 || got > 3 {
		t.Fatalf("D = %d, want within [2,3]", got)
	}
}

func TestDynamicDiameterErrors(t *testing.T) {
	d := NewStatic(graph.New(2))
	if _, err := DynamicDiameter(d, 0, 10); err == nil {
		t.Fatal("window 0 should error")
	}
	if _, err := DynamicDiameter(d, 1, 5); err == nil {
		t.Fatal("disconnected graph should propagate flood error")
	}
}

// pd2Fixture builds a G(PD)_2 dynamic graph: leader 0, V1 = {1,2},
// V2 = {3,4}, with the V1-V2 edges rotating each round.
func pd2Fixture() Dynamic {
	mk := func(edges []graph.Edge) *graph.Graph {
		base := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}}
		return graph.MustFromEdges(5, append(base, edges...))
	}
	g0 := mk([]graph.Edge{{U: 1, V: 3}, {U: 1, V: 4}})
	g1 := mk([]graph.Edge{{U: 1, V: 3}, {U: 2, V: 4}})
	g2 := mk([]graph.Edge{{U: 2, V: 3}, {U: 2, V: 4}})
	d, err := NewCyclic([]*graph.Graph{g0, g1, g2})
	if err != nil {
		panic(err)
	}
	return d
}

func TestVerifyPersistentDistance(t *testing.T) {
	d := pd2Fixture()
	dist, err := VerifyPersistentDistance(d, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 1, 2, 2}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestVerifyPersistentDistanceViolation(t *testing.T) {
	// Node 2 moves from distance 1 to distance 2 at round 1.
	g0 := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}})
	g1 := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	d, err := NewCyclic([]*graph.Graph{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = VerifyPersistentDistance(d, 0, 4)
	var pe *PersistentDistanceError
	if !errors.As(err, &pe) {
		t.Fatalf("want PersistentDistanceError, got %v", err)
	}
	if pe.Node != 2 || pe.Round != 1 {
		t.Fatalf("violation = %+v, want node 2 round 1", pe)
	}
}

func TestVerifyPersistentDistanceUnreachable(t *testing.T) {
	d := NewStatic(graph.New(2))
	if _, err := VerifyPersistentDistance(d, 0, 3); err == nil {
		t.Fatal("unreachable node should error")
	}
}

func TestVerifyPersistentDistanceArgErrors(t *testing.T) {
	d := NewStatic(graph.Path(3))
	if _, err := VerifyPersistentDistance(d, 9, 3); err == nil {
		t.Fatal("bad leader should error")
	}
	if _, err := VerifyPersistentDistance(d, 0, 0); err == nil {
		t.Fatal("zero rounds should error")
	}
}

func TestPDClass(t *testing.T) {
	h, err := PDClass(pd2Fixture(), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if h != 2 {
		t.Fatalf("PD class = %d, want 2", h)
	}
	// A static star is PD_1.
	star, err := graph.Star(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err = PDClass(NewStatic(star), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h != 1 {
		t.Fatalf("star PD class = %d, want 1", h)
	}
}

func TestLayerPartition(t *testing.T) {
	layers, err := LayerPartition(pd2Fixture(), 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != 3 {
		t.Fatalf("layer count = %d, want 3", len(layers))
	}
	if len(layers[0]) != 1 || layers[0][0] != 0 {
		t.Fatalf("V0 = %v", layers[0])
	}
	if len(layers[1]) != 2 || len(layers[2]) != 2 {
		t.Fatalf("V1 = %v, V2 = %v", layers[1], layers[2])
	}
}

func TestLayerPartitionError(t *testing.T) {
	if _, err := LayerPartition(NewStatic(graph.New(2)), 0, 2); err == nil {
		t.Fatal("disconnected graph should error")
	}
}

func TestPD2FixtureIntervalConnected(t *testing.T) {
	if err := VerifyIntervalConnectivity(pd2Fixture(), 9); err != nil {
		t.Fatal(err)
	}
}
