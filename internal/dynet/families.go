package dynet

import (
	"fmt"
	"math/rand"

	"anondyn/internal/graph"
)

// This file is the adversary-family diversity layer: the scenario generators
// beyond the worst-case PD₂ construction — stability-window (T-interval)
// dynamics, join/leave churn with live-set accounting, and seed-deterministic
// randomized schedules — together with the machine-checkable Properties each
// family declares and the registry the conformance suite enumerates.

// roundMix decorrelates per-round (or per-window) seeds; the multiplier is
// the SplitMix64 increment.
const roundMix = 0x5851F42D4C957F2D

// Properties declares the machine-checkable guarantees an adversary family
// promises. VerifyProperties checks every declared guarantee against actual
// snapshots; the conformance suite runs it for every registered family, so a
// family cannot advertise a property its snapshots violate.
type Properties struct {
	// IntervalConnected: every snapshot is connected (1-interval
	// connectivity). For families with LiveAccounting the guarantee is on
	// the live-induced subgraph instead: live nodes form a connected graph.
	IntervalConnected bool
	// StabilityWindow T > 1: snapshots are constant on the aligned windows
	// [iT, (i+1)T) — the stability-window reading of T-interval
	// connectivity, under which the intersection of any aligned window is
	// the (connected) window graph itself. 0 or 1 declares nothing.
	StabilityWindow int
	// LiveAccounting: the family implements LiveTracker and its join/leave
	// bookkeeping is conserved — LiveCount(r) = LiveCount(r-1) + Joins(r) -
	// Leaves(r), with dead nodes isolated in every snapshot and node 0 (the
	// leader slot) never leaving.
	LiveAccounting bool
	// SeedDeterministic: Snapshot(r) is a pure function of (seed, r) —
	// repeated calls return equal graphs, so runs replay exactly.
	SeedDeterministic bool
	// MaxDegree > 0: no node exceeds this degree in any snapshot.
	MaxDegree int
}

// PropertyCarrier is a Dynamic that declares its own Properties.
type PropertyCarrier interface {
	Dynamic
	Properties() Properties
}

// LiveTracker is the live-set accounting interface churn families implement:
// per-round membership plus join/leave bookkeeping. LiveCount, Joins and
// Leaves must be derivable from Alive — VerifyProperties recomputes them from
// per-node Alive scans and rejects any disagreement, so the two code paths
// cross-check each other.
type LiveTracker interface {
	Dynamic
	// Alive reports whether slot v participates in round r.
	Alive(r int, v graph.NodeID) bool
	// LiveCount returns the number of live slots at round r.
	LiveCount(r int) int
	// Joins returns the number of slots that are live at r but were dead at
	// r-1. Joins(0) is 0: round 0 is the initial population, not a join.
	Joins(r int) int
	// Leaves returns the number of slots dead at r but live at r-1.
	Leaves(r int) int
}

// PropertyError reports the first declared property a family violated.
type PropertyError struct {
	Property string
	Round    int
	Detail   string
}

// Error implements error.
func (e *PropertyError) Error() string {
	return fmt.Sprintf("dynet: property %s violated at round %d: %s", e.Property, e.Round, e.Detail)
}

// VerifyProperties checks every property declared in p against the snapshots
// of d over rounds [0, rounds). It returns a *PropertyError naming the first
// violated guarantee, or nil when every declared property holds.
func VerifyProperties(d Dynamic, p Properties, rounds int) error {
	if rounds < 1 {
		return fmt.Errorf("dynet: rounds must be >= 1, got %d", rounds)
	}
	n := d.N()
	lt, hasLive := d.(LiveTracker)
	if p.LiveAccounting && !hasLive {
		return &PropertyError{Property: "live-accounting", Round: 0,
			Detail: "family does not implement LiveTracker"}
	}
	prevLive := 0
	for r := 0; r < rounds; r++ {
		g := d.Snapshot(r)
		if g.N() != n {
			return &PropertyError{Property: "node-count", Round: r,
				Detail: fmt.Sprintf("snapshot has %d nodes, want %d", g.N(), n)}
		}
		if p.SeedDeterministic && !g.Equal(d.Snapshot(r)) {
			return &PropertyError{Property: "seed-determinism", Round: r,
				Detail: "repeated Snapshot calls disagree"}
		}
		if p.MaxDegree > 0 {
			for v := 0; v < n; v++ {
				if deg := g.Degree(graph.NodeID(v)); deg > p.MaxDegree {
					return &PropertyError{Property: "max-degree", Round: r,
						Detail: fmt.Sprintf("node %d has degree %d > %d", v, deg, p.MaxDegree)}
				}
			}
		}
		if p.StabilityWindow > 1 {
			base := d.Snapshot(r - r%p.StabilityWindow)
			if !g.Equal(base) {
				return &PropertyError{Property: "stability-window", Round: r,
					Detail: fmt.Sprintf("snapshot differs from window start %d", r-r%p.StabilityWindow)}
			}
		}
		if p.LiveAccounting {
			// Recompute the live set from per-node Alive calls; the
			// tracker's aggregate bookkeeping must agree exactly.
			live := make([]bool, n)
			count := 0
			for v := 0; v < n; v++ {
				if lt.Alive(r, graph.NodeID(v)) {
					live[v] = true
					count++
				}
			}
			if !live[0] {
				return &PropertyError{Property: "live-accounting", Round: r,
					Detail: "leader slot 0 is dead"}
			}
			if got := lt.LiveCount(r); got != count {
				return &PropertyError{Property: "live-accounting", Round: r,
					Detail: fmt.Sprintf("LiveCount %d, Alive scan says %d", got, count)}
			}
			joins, leaves := 0, 0
			if r > 0 {
				for v := 0; v < n; v++ {
					was := lt.Alive(r-1, graph.NodeID(v))
					switch {
					case live[v] && !was:
						joins++
					case !live[v] && was:
						leaves++
					}
				}
			}
			if got := lt.Joins(r); got != joins {
				return &PropertyError{Property: "live-accounting", Round: r,
					Detail: fmt.Sprintf("Joins %d, Alive diff says %d", got, joins)}
			}
			if got := lt.Leaves(r); got != leaves {
				return &PropertyError{Property: "live-accounting", Round: r,
					Detail: fmt.Sprintf("Leaves %d, Alive diff says %d", got, leaves)}
			}
			if r > 0 && count != prevLive+joins-leaves {
				return &PropertyError{Property: "live-accounting", Round: r,
					Detail: fmt.Sprintf("live mass not conserved: %d != %d + %d - %d",
						count, prevLive, joins, leaves)}
			}
			prevLive = count
			// Dead slots are isolated; live slots form a connected subgraph.
			for v := 0; v < n; v++ {
				if !live[v] && g.Degree(graph.NodeID(v)) != 0 {
					return &PropertyError{Property: "live-accounting", Round: r,
						Detail: fmt.Sprintf("dead node %d has degree %d", v, g.Degree(graph.NodeID(v)))}
				}
			}
			if p.IntervalConnected && !liveConnected(g, live, count) {
				return &PropertyError{Property: "interval-connectivity", Round: r,
					Detail: "live-induced subgraph is disconnected"}
			}
		} else if p.IntervalConnected && !g.Connected() {
			return &PropertyError{Property: "interval-connectivity", Round: r,
				Detail: "snapshot is disconnected"}
		}
	}
	return nil
}

// liveConnected reports whether the live nodes are mutually reachable through
// live-live edges (dead nodes are isolated, so plain BFS from any live node
// suffices).
func liveConnected(g *graph.Graph, live []bool, count int) bool {
	if count <= 1 {
		return true
	}
	start := -1
	for v, ok := range live {
		if ok {
			start = v
			break
		}
	}
	seen := make([]bool, len(live))
	seen[start] = true
	queue := []graph.NodeID{graph.NodeID(start)}
	reached := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if !seen[u] && live[u] {
				seen[u] = true
				reached++
				queue = append(queue, u)
			}
		}
	}
	return reached == count
}

// TInterval is the stability-window adversary: topology is redrawn as a fresh
// random connected graph at every aligned window boundary and held constant
// for Window consecutive rounds. The intersection of the snapshots over any
// aligned window is therefore the (connected) window graph itself — the
// stability-window form of T-interval connectivity the degree-based counting
// literature (arXiv:1509.02140) assumes.
//
// A window of 1 is random churn, the fair (non-worst-case) adversary: an
// independent, seed-reproducible connected graph every round, the
// peer-to-peer-style dynamicity of the paper's related work ([8], [14]).
type TInterval struct {
	n, window int
	p         float64
	seed      int64
}

// NewTInterval returns a T-interval adversary over n nodes with stability
// window T >= 1 and extra edge probability p.
func NewTInterval(n, window int, p float64, seed int64) (*TInterval, error) {
	if n < 1 {
		return nil, fmt.Errorf("dynet: T-interval adversary needs at least one node, got %d", n)
	}
	if window < 1 {
		return nil, fmt.Errorf("dynet: stability window must be >= 1, got %d", window)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("dynet: edge probability %v out of [0,1]", p)
	}
	return &TInterval{n: n, window: window, p: p, seed: seed}, nil
}

// N implements Dynamic.
func (t *TInterval) N() int { return t.n }

// Snapshot implements Dynamic: the window index, not the round, perturbs the
// seed, so every round of a window draws the identical graph.
func (t *TInterval) Snapshot(r int) *graph.Graph {
	if r < 0 {
		r = 0
	}
	win := r / t.window
	rng := rand.New(rand.NewSource(t.seed ^ (int64(win)+1)*roundMix))
	return graph.RandomConnected(t.n, t.p, rng)
}

// Properties implements PropertyCarrier.
func (t *TInterval) Properties() Properties {
	return Properties{IntervalConnected: true, StabilityWindow: t.window, SeedDeterministic: true}
}

// RejoinPolicy selects what happens to a transient node after it leaves a
// Churn network.
type RejoinPolicy int

const (
	// RejoinCycle: transient nodes alternate live and dead stints of Dwell
	// rounds forever, so every slot is live infinitely often.
	RejoinCycle RejoinPolicy = iota
	// RejoinNever: each transient node leaves once, at a seeded round, and
	// stays gone — monotone shrink toward the stable core.
	RejoinNever
)

// String renders the policy for instance names and error messages.
func (p RejoinPolicy) String() string {
	switch p {
	case RejoinCycle:
		return "cycle"
	case RejoinNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Churn is the join/leave adversary: over a universe of n slots, a stable
// core (slots 0..Core-1, always containing the leader slot 0) never leaves,
// while the transient slots churn on seeded per-node schedules governed by
// the rejoin policy. Live slots form a fresh random connected subgraph every
// round; dead slots are isolated — a process keeps running but receives no
// messages while its slot is out, which is how the live-set accounting
// threads through the round engines without any engine change.
type Churn struct {
	n, core, dwell int
	policy         RejoinPolicy
	p              float64
	seed           int64
}

// NewChurn returns a churn adversary over n slots with a stable core of
// `core` slots, transient stint length `dwell`, the given rejoin policy, and
// extra edge probability p among live nodes.
func NewChurn(n, core, dwell int, policy RejoinPolicy, p float64, seed int64) (*Churn, error) {
	if n < 1 {
		return nil, fmt.Errorf("dynet: churn adversary needs at least one slot, got %d", n)
	}
	if core < 1 || core > n {
		return nil, fmt.Errorf("dynet: core size %d out of [1,%d]", core, n)
	}
	if dwell < 1 {
		return nil, fmt.Errorf("dynet: dwell must be >= 1, got %d", dwell)
	}
	if policy != RejoinCycle && policy != RejoinNever {
		return nil, fmt.Errorf("dynet: unknown rejoin policy %d", int(policy))
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("dynet: edge probability %v out of [0,1]", p)
	}
	return &Churn{n: n, core: core, dwell: dwell, policy: policy, p: p, seed: seed}, nil
}

// N implements Dynamic.
func (c *Churn) N() int { return c.n }

// phase returns the deterministic per-slot schedule offset in [0, 2·dwell),
// derived SplitMix64-style from the seed and the slot index.
func (c *Churn) phase(v graph.NodeID) int {
	x := uint64(c.seed) + (uint64(v)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(2*c.dwell))
}

// Alive implements LiveTracker.
func (c *Churn) Alive(r int, v graph.NodeID) bool {
	if r < 0 {
		r = 0
	}
	if int(v) < c.core {
		return true
	}
	ph := c.phase(v)
	switch c.policy {
	case RejoinNever:
		// Departure round in [1, 2·dwell]: every transient slot is live at
		// round 0 and gone for good from its departure round on.
		return r < ph+1
	default: // RejoinCycle
		return ((r+ph)/c.dwell)%2 == 0
	}
}

// LiveCount implements LiveTracker.
func (c *Churn) LiveCount(r int) int {
	count := c.core
	for v := c.core; v < c.n; v++ {
		if c.Alive(r, graph.NodeID(v)) {
			count++
		}
	}
	return count
}

// Joins implements LiveTracker via the closed-form per-slot schedule (the
// conformance verifier recomputes the same quantity from Alive diffs, so the
// two derivations cross-check each other).
func (c *Churn) Joins(r int) int {
	if r <= 0 {
		return 0
	}
	joins := 0
	for v := c.core; v < c.n; v++ {
		ph := c.phase(graph.NodeID(v))
		switch c.policy {
		case RejoinNever:
			// Never rejoins: no joins after round 0.
		default:
			if (r+ph)%c.dwell == 0 && ((r+ph)/c.dwell)%2 == 0 {
				joins++
			}
		}
	}
	return joins
}

// Leaves implements LiveTracker.
func (c *Churn) Leaves(r int) int {
	if r <= 0 {
		return 0
	}
	leaves := 0
	for v := c.core; v < c.n; v++ {
		ph := c.phase(graph.NodeID(v))
		switch c.policy {
		case RejoinNever:
			if r == ph+1 {
				leaves++
			}
		default:
			if (r+ph)%c.dwell == 0 && ((r+ph)/c.dwell)%2 == 1 {
				leaves++
			}
		}
	}
	return leaves
}

// Snapshot implements Dynamic: a random attachment tree over the round's
// live slots plus p-probability extra live-live edges, seeded per round.
// Dead slots get no edges.
func (c *Churn) Snapshot(r int) *graph.Graph {
	if r < 0 {
		r = 0
	}
	g := graph.New(c.n)
	var live []graph.NodeID
	for v := 0; v < c.n; v++ {
		if c.Alive(r, graph.NodeID(v)) {
			live = append(live, graph.NodeID(v))
		}
	}
	if len(live) <= 1 {
		return g
	}
	rng := rand.New(rand.NewSource(c.seed ^ (int64(r)+1)*roundMix))
	perm := rng.Perm(len(live))
	for i := 1; i < len(live); i++ {
		j := rng.Intn(i)
		mustAddEdge(g, live[perm[i]], live[perm[j]])
	}
	if c.p > 0 {
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				if rng.Float64() < c.p {
					mustAddEdge(g, live[i], live[j])
				}
			}
		}
	}
	return g
}

// mustAddEdge adds an edge between distinct in-range nodes; AddEdge only
// fails on out-of-range or self loops, which the callers rule out.
func mustAddEdge(g *graph.Graph, u, v graph.NodeID) {
	if u == v {
		return
	}
	if err := g.AddEdge(u, v); err != nil {
		panic(err) // unreachable: indices are in range by construction
	}
}

// Properties implements PropertyCarrier.
func (c *Churn) Properties() Properties {
	return Properties{IntervalConnected: true, LiveAccounting: true, SeedDeterministic: true}
}

// Family is one registered adversary family: a builder parameterized on the
// problem size and seed. The network it builds declares its own Properties,
// which the conformance suite verifies on every build.
type Family struct {
	// Name selects the family in the conformance suite and error messages.
	Name string
	// Doc is a one-line description.
	Doc string
	// Build constructs the family at size n with the given seed.
	Build func(n int, seed int64) (PropertyCarrier, error)
}

// Families returns the registered adversary families in deterministic order.
// Default shape parameters (window, core fraction, dwell, edge probability)
// are fixed here so a (name, n, seed) triple pins the network exactly.
func Families() []Family {
	return []Family{
		{
			Name: "tinterval",
			Doc:  "stability-window dynamics: fresh random connected topology held for T=3 rounds",
			Build: func(n int, seed int64) (PropertyCarrier, error) {
				return NewTInterval(n, 3, 0.2, seed)
			},
		},
		{
			Name: "joinleave",
			Doc:  "join/leave churn: stable core ~n/3, transients on dwell-2 cycling stints, live-set accounting",
			Build: func(n int, seed int64) (PropertyCarrier, error) {
				core := n / 3
				if core < 1 {
					core = 1
				}
				return NewChurn(n, core, 2, RejoinCycle, 0.15, seed)
			},
		},
		{
			Name: "randomized",
			Doc:  "seed-deterministic random connected schedule, fresh draw every round",
			Build: func(n int, seed int64) (PropertyCarrier, error) {
				return NewTInterval(n, 1, 0.3, seed)
			},
		},
		{
			Name: "flooddelay",
			Doc:  "the adaptive flood-delaying adversary (deterministic; the seed is ignored)",
			Build: func(n int, seed int64) (PropertyCarrier, error) {
				if n < 2 {
					n = 2
				}
				return NewFloodDelaying(n, 0)
			},
		},
	}
}

// Compile-time interface checks for the families.
var (
	_ PropertyCarrier = (*TInterval)(nil)
	_ PropertyCarrier = (*Churn)(nil)
	_ PropertyCarrier = (*FloodDelaying)(nil)
	_ LiveTracker     = (*Churn)(nil)
)
