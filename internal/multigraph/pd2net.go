package multigraph

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"anondyn/internal/graph"
)

// PD2Net is the Lemma-1 transformation of a multigraph served natively in
// CSR form: a dynet.CSRDynamic whose SnapshotCSR builds each round's
// topology directly into reused flat buffers, with no per-round map graphs
// and no per-node allocations. It is the scale path of the transformation —
// a million-node ℳ(DBL)ₖ instance becomes a million-node 𝒢(PD)₂ network
// without materializing a million adjacency maps per round. It optionally
// puts a static chain between the leader and the relays (ToPD2Chain), the
// composition of Corollary 1.
//
// The returned *graph.CSR is a snapshot view: it is valid until the next
// SnapshotCSR call, per the dynet.CSRDynamic contract, and a call returns
// the previous call's pointer exactly when its clamped round repeats the
// previous call's. Snapshot, the map-graph accessor of the plain Dynamic
// interface, serves the analyses; both entry points of the round engine
// read SnapshotCSR. It keeps the graph of the last round it built, so every
// round at or past the horizon returns one shared graph, which builds its
// CSR once.
// Snapshot is safe for concurrent use; SnapshotCSR is not.
type PD2Net struct {
	m      *Multigraph
	layout *PD2Layout
	n      int

	// Round-build scratch, reused across SnapshotCSR calls. Both views
	// are headers over the one set of arrays; a rebuild fills the arrays
	// and hands out the view the previous call did not, so the pointer
	// changes exactly when the round does.
	offsets   []int
	nbrs      []graph.NodeID
	fill      []int // per-row fill cursor
	views     [2]graph.CSR
	view      int // index of the view last handed out
	lastRound int // clamped round of the last build; -1 before the first

	// last is the map graph of the most recent Snapshot build.
	last atomic.Pointer[roundGraph]
}

// roundGraph is one cached map-graph snapshot and its clamped round.
type roundGraph struct {
	round int
	g     *graph.Graph
}

// ToPD2CSR performs the same transformation as ToPD2 but returns a PD2Net
// serving CSR snapshots. Rounds at or beyond the horizon repeat the final
// round's topology; a zero-horizon multigraph cannot be transformed.
func (m *Multigraph) ToPD2CSR() (*PD2Net, *PD2Layout, error) { return m.ToPD2Chain(0) }

// ToPD2Chain is the Lemma-1 transformation behind a static chain of
// chainLen nodes, Corollary 1's composition:
//
//	leader — c₁ — … — c_m — {V₁ relays} ⇄ V₂ (the label schedule)
//
// The leader is node 0, the chain nodes are 1..m in leader-to-core order,
// the relays m+1..m+k and the W nodes follow from m+k+1. With chainLen = 0
// the relays attach to the leader and the network is ToPD2CSR's.
func (m *Multigraph) ToPD2Chain(chainLen int) (*PD2Net, *PD2Layout, error) {
	if m.horizon == 0 {
		return nil, nil, fmt.Errorf("multigraph: cannot transform zero-horizon multigraph")
	}
	if chainLen < 0 {
		return nil, nil, fmt.Errorf("multigraph: negative chain length %d", chainLen)
	}
	layout := &PD2Layout{Leader: 0}
	next := graph.NodeID(1)
	for i := 0; i < chainLen; i++ {
		layout.Chain = append(layout.Chain, next)
		next++
	}
	for j := 0; j < m.k; j++ {
		layout.V1 = append(layout.V1, next)
		next++
	}
	for v := 0; v < m.w; v++ {
		layout.V2 = append(layout.V2, next)
		next++
	}
	return &PD2Net{m: m, layout: layout, n: layout.N(), lastRound: -1}, layout, nil
}

// N returns 1 + chain length + k + |W|.
func (p *PD2Net) N() int { return p.n }

// clampRound maps any round to the scheduled horizon, repeating the final
// round forever.
func (p *PD2Net) clampRound(r int) int {
	if r < 0 {
		r = 0
	}
	if r >= p.m.horizon {
		r = p.m.horizon - 1
	}
	return r
}

// Snapshot returns round r's topology as a map graph, built from the rows
// SnapshotCSR produces. It builds them with a PD2Net of its own and never
// touches the net's CSR scratch, so it is safe for concurrent use, also
// alongside SnapshotCSR. A round whose clamped index matches the last
// build returns that build's graph; the round engine never calls Snapshot
// when SnapshotCSR is available. Callers must not mutate the returned
// graph.
func (p *PD2Net) Snapshot(r int) *graph.Graph {
	r = p.clampRound(r)
	old := p.last.Load()
	if old != nil && old.round == r {
		return old.g
	}
	own := PD2Net{m: p.m, layout: p.layout, n: p.n, lastRound: -1}
	c := own.SnapshotCSR(r)
	g := graph.New(p.n)
	for u := 0; u < p.n; u++ {
		for _, v := range c.Neighbors(graph.NodeID(u)) {
			if int(v) > u {
				if err := g.AddEdge(graph.NodeID(u), v); err != nil {
					panic(err) // unreachable: SnapshotCSR rows are in range and loop-free
				}
			}
		}
	}
	built := &roundGraph{round: r, g: g}
	if !p.last.CompareAndSwap(old, built) {
		// A concurrent caller cached first: share its graph when it is
		// the same round's, so one round never yields two graphs.
		if cur := p.last.Load(); cur.round == r {
			return cur.g
		}
	}
	return g
}

// SnapshotCSR returns round r's topology in CSR form. It rebuilds into the
// net's own arrays and returns the other view, unless r's clamped round
// repeats the previous call's, which returns the previous pointer. Row
// contents are ascending by construction: a chain node's row lists its
// predecessor (c₁'s is the leader), then its successor or, for the hub the
// relays attach to (c_m, or the leader when there is no chain), relays
// 1..k; each relay row lists the hub followed by its W-nodes in multigraph
// order; each W row lists its relays in label order.
func (p *PD2Net) SnapshotCSR(r int) *graph.CSR {
	r = p.clampRound(r)
	if r == p.lastRound {
		return &p.views[p.view]
	}
	// hub is the node the relays attach to: the leader (node 0) or the
	// last chain node c_m (node m).
	k, n, hub := p.m.k, p.n, len(p.layout.Chain)

	if cap(p.offsets) < n+1 {
		p.offsets = make([]int, n+1)
		p.fill = make([]int, n)
	}
	offsets := p.offsets[:n+1]
	cur := p.fill[:n]

	// Degree pass. offsets[i+1] temporarily holds deg(i). Node hub+j is
	// the relay of label j.
	offsets[0] = 0
	for i := 0; i <= hub; i++ {
		d := k // the hub's relays
		if i < hub {
			d = 1 // the next chain node
		}
		if i > 0 {
			d++ // the previous chain node, or the leader
		}
		offsets[1+i] = d
	}
	for j := 1; j <= k; j++ {
		offsets[1+hub+j] = 1 // each relay sees the hub
	}
	cells, h := p.m.cells, p.m.horizon // round r of node v is cells[v*h+r]
	for v, c := 0, r; v < p.m.w; v, c = v+1, c+h {
		s := cells[c]
		offsets[1+hub+k+v+1] = bits.OnesCount32(uint32(s))
		for j := 1; j <= k; j++ {
			if s.Has(j) {
				offsets[1+hub+j]++
			}
		}
	}
	// Prefix sum. Degrees are bounded by n-1 < MaxInt but the running total
	// is guarded anyway, matching the HistoryCount saturation convention:
	// a saturated total fails graph.CSR.Validate downstream instead of
	// wrapping silently.
	total := 0
	for i := 1; i <= n; i++ {
		total = satAddInt(total, offsets[i])
		offsets[i] = total
	}
	if cap(p.nbrs) < total {
		p.nbrs = make([]graph.NodeID, total)
	}
	nbrs := p.nbrs[:total]

	// Fill pass.
	for i := 0; i < n; i++ {
		cur[i] = offsets[i]
	}
	for i := 1; i <= hub; i++ {
		nbrs[cur[i-1]] = graph.NodeID(i) // chain node i-1 -> its successor
		cur[i-1]++
		nbrs[cur[i]] = graph.NodeID(i - 1) // chain node i -> its predecessor, first entry
		cur[i]++
	}
	for j := 1; j <= k; j++ {
		relay := hub + j
		nbrs[cur[hub]] = graph.NodeID(relay) // hub -> relay j
		cur[hub]++
		nbrs[cur[relay]] = graph.NodeID(hub) // relay j -> hub, first entry of the row
		cur[relay]++
	}
	for v, c := 0, r; v < p.m.w; v, c = v+1, c+h {
		s := cells[c]
		w := graph.NodeID(1 + hub + k + v)
		for j := 1; j <= k; j++ {
			if s.Has(j) {
				relay := hub + j
				nbrs[cur[relay]] = w // relay rows fill in ascending v
				cur[relay]++
				nbrs[cur[int(w)]] = graph.NodeID(relay) // W row fills in label order
				cur[int(w)]++
			}
		}
	}
	p.view ^= 1
	c := &p.views[p.view]
	c.Offsets, c.Nbrs = offsets, nbrs
	p.lastRound = r
	return c
}

// satAddInt is the saturating addition used for offset accumulation, per
// HistoryCount's convention.
func satAddInt(a, b int) int {
	const maxInt = int(^uint(0) >> 1)
	if a > maxInt-b {
		return maxInt
	}
	return a + b
}
