package dynet

import (
	"strings"
	"testing"

	"anondyn/internal/graph"
)

// TestFamiliesConformance is the dynet-level conformance suite: every
// registered family, at several sizes and seeds, must satisfy every property
// it declares. The built network's Properties are the contract — a family
// that advertises a guarantee its snapshots violate fails here.
func TestFamiliesConformance(t *testing.T) {
	sizes := []int{1, 2, 5, 9, 16}
	seeds := []int64{1, 7, 42}
	for _, fam := range Families() {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			for _, n := range sizes {
				for _, seed := range seeds {
					d, err := fam.Build(n, seed)
					if err != nil {
						t.Fatalf("Build(n=%d, seed=%d): %v", n, seed, err)
					}
					if err := VerifyProperties(d, d.Properties(), 20); err != nil {
						t.Errorf("n=%d seed=%d: %v", n, seed, err)
					}
				}
			}
		})
	}
}

// TestTIntervalWindowLaw pins the stability-window law directly: within an
// aligned window every snapshot equals the window-start graph, and
// consecutive windows draw different graphs (for n large enough that a
// repeat is astronomically unlikely at these seeds).
func TestTIntervalWindowLaw(t *testing.T) {
	d, err := NewTInterval(9, 4, 0.2, 13)
	if err != nil {
		t.Fatal(err)
	}
	if d.window != 4 {
		t.Fatalf("window = %d, want 4", d.window)
	}
	for r := 0; r < 24; r++ {
		base := d.Snapshot(r - r%4)
		if !d.Snapshot(r).Equal(base) {
			t.Fatalf("round %d differs from its window start %d", r, r-r%4)
		}
	}
	if d.Snapshot(0).Equal(d.Snapshot(4)) {
		t.Error("windows 0 and 1 drew identical graphs; expected a fresh draw at the boundary")
	}
	if !d.Snapshot(3).Equal(d.Snapshot(0)) || d.Snapshot(4).Equal(d.Snapshot(7)) == false {
		t.Error("window membership mismatch at the 3/4 boundary")
	}
}

// TestTIntervalRejectsBadParams covers constructor validation.
func TestTIntervalRejectsBadParams(t *testing.T) {
	cases := []struct {
		n, win int
		p      float64
	}{
		{0, 3, 0.2}, {5, 0, 0.2}, {5, 3, -0.1}, {5, 3, 1.5},
	}
	for _, c := range cases {
		if _, err := NewTInterval(c.n, c.win, c.p, 1); err == nil {
			t.Errorf("NewTInterval(%d, %d, %v) accepted invalid params", c.n, c.win, c.p)
		}
	}
}

// TestChurnAccountingClosedForm checks the tracker's closed-form Joins and
// Leaves against a brute-force Alive diff for both rejoin policies, plus the
// conservation law LiveCount(r) = LiveCount(r-1) + Joins(r) - Leaves(r).
func TestChurnAccountingClosedForm(t *testing.T) {
	for _, policy := range []RejoinPolicy{RejoinCycle, RejoinNever} {
		c, err := NewChurn(11, 4, 3, policy, 0.2, 5)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 30; r++ {
			joins, leaves, count := 0, 0, 0
			for v := 0; v < c.N(); v++ {
				now := c.Alive(r, graph.NodeID(v))
				if now {
					count++
				}
				if r > 0 {
					was := c.Alive(r-1, graph.NodeID(v))
					if now && !was {
						joins++
					}
					if !now && was {
						leaves++
					}
				}
			}
			if got := c.Joins(r); got != joins {
				t.Fatalf("policy %v round %d: Joins %d, diff says %d", policy, r, got, joins)
			}
			if got := c.Leaves(r); got != leaves {
				t.Fatalf("policy %v round %d: Leaves %d, diff says %d", policy, r, got, leaves)
			}
			if got := c.LiveCount(r); got != count {
				t.Fatalf("policy %v round %d: LiveCount %d, scan says %d", policy, r, got, count)
			}
			if r > 0 && count != c.LiveCount(r-1)+joins-leaves {
				t.Fatalf("policy %v round %d: conservation violated", policy, r)
			}
		}
	}
}

// TestChurnRejoinNeverShrinksToCore: under RejoinNever every transient slot
// departs by round 2·dwell, so from then on exactly the core is live.
func TestChurnRejoinNeverShrinksToCore(t *testing.T) {
	c, err := NewChurn(10, 3, 2, RejoinNever, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.LiveCount(0); got != 10 {
		t.Errorf("LiveCount(0) = %d, want 10 (all transients start live)", got)
	}
	for r := 2 * 2; r < 12; r++ {
		if got := c.LiveCount(r); got != 3 {
			t.Errorf("LiveCount(%d) = %d, want core size 3", r, got)
		}
	}
	// Monotone: live count never increases under RejoinNever.
	for r := 1; r < 12; r++ {
		if c.Joins(r) != 0 {
			t.Errorf("Joins(%d) = %d under RejoinNever, want 0", r, c.Joins(r))
		}
	}
}

// TestChurnDeadIsolatedLiveConnected pins the snapshot shape the counting
// layer relies on: dead slots have no edges, live slots are connected.
func TestChurnDeadIsolatedLiveConnected(t *testing.T) {
	c, err := NewChurn(12, 4, 2, RejoinCycle, 0.25, 77)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 15; r++ {
		g := c.Snapshot(r)
		live := make([]bool, c.N())
		count := 0
		for v := 0; v < c.N(); v++ {
			live[v] = c.Alive(r, graph.NodeID(v))
			if live[v] {
				count++
			} else if g.Degree(graph.NodeID(v)) != 0 {
				t.Fatalf("round %d: dead node %d has edges", r, v)
			}
		}
		if !liveConnected(g, live, count) {
			t.Fatalf("round %d: live subgraph disconnected", r)
		}
	}
}

// TestChurnRejectsBadParams covers constructor validation.
func TestChurnRejectsBadParams(t *testing.T) {
	cases := []struct {
		n, core, dwell int
		policy         RejoinPolicy
		p              float64
	}{
		{0, 1, 1, RejoinCycle, 0.1},
		{5, 0, 1, RejoinCycle, 0.1},
		{5, 6, 1, RejoinCycle, 0.1},
		{5, 2, 0, RejoinCycle, 0.1},
		{5, 2, 1, RejoinPolicy(9), 0.1},
		{5, 2, 1, RejoinCycle, -1},
		{5, 2, 1, RejoinCycle, 2},
	}
	for _, c := range cases {
		if _, err := NewChurn(c.n, c.core, c.dwell, c.policy, c.p, 1); err == nil {
			t.Errorf("NewChurn(%+v) accepted invalid params", c)
		}
	}
}

// TestVerifyPropertiesCatchesViolations: the verifier must reject a family
// whose declarations overstate its snapshots — each declared property is
// checked against a Dynamic purpose-built to violate it.
func TestVerifyPropertiesCatchesViolations(t *testing.T) {
	disconnected := NewFunc(4, func(r int) *graph.Graph { return graph.New(4) })
	if err := VerifyProperties(disconnected, Properties{IntervalConnected: true}, 3); err == nil {
		t.Error("disconnected family passed IntervalConnected")
	}
	drift := NewFunc(3, func(r int) *graph.Graph {
		g := graph.New(3)
		mustAddEdge(g, 0, graph.NodeID(1+r%2))
		mustAddEdge(g, 1, 2)
		return g
	})
	if err := VerifyProperties(drift, Properties{StabilityWindow: 3}, 6); err == nil {
		t.Error("drifting family passed StabilityWindow 3")
	}
	starGraph, err := graph.Star(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	star := NewStatic(starGraph)
	if err := VerifyProperties(star, Properties{MaxDegree: 2}, 2); err == nil {
		t.Error("star hub passed MaxDegree 2")
	}
	if err := VerifyProperties(star, Properties{LiveAccounting: true}, 2); err == nil {
		t.Error("non-tracker family passed LiveAccounting")
	}
	if err := VerifyProperties(star, Properties{}, 0); err == nil {
		t.Error("rounds=0 accepted")
	}
	// A violation surfaces as a *PropertyError naming the property.
	err = VerifyProperties(disconnected, Properties{IntervalConnected: true}, 3)
	perr, ok := err.(*PropertyError)
	if !ok {
		t.Fatalf("want *PropertyError, got %T", err)
	}
	if perr.Property != "interval-connectivity" || !strings.Contains(perr.Error(), "round 0") {
		t.Errorf("unexpected error detail: %v", perr)
	}
}

// ghostChurn violates dead-isolation: it decorates a Churn with one edge
// from a dead node. VerifyProperties must catch it via the LiveAccounting
// snapshot check.
type ghostChurn struct{ *Churn }

func (g ghostChurn) Snapshot(r int) *graph.Graph {
	snap := g.Churn.Snapshot(r).Clone()
	for v := 0; v < g.N(); v++ {
		if !g.Alive(r, graph.NodeID(v)) {
			for u := 0; u < g.N(); u++ {
				if u != v && g.Alive(r, graph.NodeID(u)) {
					mustAddEdge(snap, graph.NodeID(v), graph.NodeID(u))
					return snap
				}
			}
		}
	}
	return snap
}

func TestVerifyPropertiesCatchesGhostEdges(t *testing.T) {
	c, err := NewChurn(8, 2, 2, RejoinCycle, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	ghost := ghostChurn{c}
	if err := VerifyProperties(ghost, c.Properties(), 10); err == nil {
		t.Fatal("ghost-edge churn passed LiveAccounting verification")
	}
}

// TestFamilyNames pins the registered name set and its order.
func TestFamilyNames(t *testing.T) {
	want := []string{"tinterval", "joinleave", "randomized", "flooddelay"}
	fams := Families()
	if len(fams) != len(want) {
		t.Fatalf("got %d families, want %d", len(fams), len(want))
	}
	for i, f := range fams {
		if f.Name != want[i] {
			t.Errorf("family %d = %q, want %q", i, f.Name, want[i])
		}
	}
}

// TestRejoinPolicyString covers the policy formatter.
func TestRejoinPolicyString(t *testing.T) {
	if RejoinCycle.String() != "cycle" || RejoinNever.String() != "never" {
		t.Error("policy names changed")
	}
	if !strings.Contains(RejoinPolicy(7).String(), "7") {
		t.Error("unknown policy should print its number")
	}
}
