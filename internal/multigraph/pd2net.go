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
// without materializing a million adjacency maps per round.
//
// The returned *graph.CSR is a snapshot view: it is valid until the next
// SnapshotCSR call, per the dynet.CSRDynamic contract. Snapshot, the
// map-graph accessor of the plain Dynamic interface, serves the sequential
// engine and the analyses. It keeps the graph of the last round it built,
// so every round at or past the horizon returns one shared graph, which
// builds its sorted-adjacency index once. Snapshot is safe for concurrent
// use; SnapshotCSR is not.
type PD2Net struct {
	m      *Multigraph
	layout *PD2Layout
	n      int

	// Round-build scratch, reused across SnapshotCSR calls.
	csr       graph.CSR
	cur       []int // per-row fill cursor
	lastRound int   // clamped round of the cached csr; -1 before first build

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
func (m *Multigraph) ToPD2CSR() (*PD2Net, *PD2Layout, error) {
	if m.horizon == 0 {
		return nil, nil, fmt.Errorf("multigraph: cannot transform zero-horizon multigraph")
	}
	layout := &PD2Layout{Leader: 0}
	for j := 1; j <= m.k; j++ {
		layout.V1 = append(layout.V1, graph.NodeID(j))
	}
	for v := range m.labels {
		layout.V2 = append(layout.V2, graph.NodeID(1+m.k+v))
	}
	return &PD2Net{m: m, layout: layout, n: layout.N(), lastRound: -1}, layout, nil
}

// N returns 1 + k + |W|.
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

// Snapshot returns round r's topology as a map graph: node j of V₁ is
// adjacent at round r exactly to the W-nodes whose label set contains j,
// and the leader to all of V₁. A round whose clamped index matches the
// last build returns that build's graph; the sharded engine never calls
// Snapshot when SnapshotCSR is available. Callers must not mutate the
// returned graph.
func (p *PD2Net) Snapshot(r int) *graph.Graph {
	r = p.clampRound(r)
	old := p.last.Load()
	if old != nil && old.round == r {
		return old.g
	}
	g := graph.New(p.n)
	for _, relay := range p.layout.V1 {
		// The leader-V₁ edges are static: V₁ nodes keep persistent
		// distance 1.
		if err := g.AddEdge(p.layout.Leader, relay); err != nil {
			panic(err) // unreachable: indices are in range by construction
		}
	}
	for v, row := range p.m.labels {
		s := row[r]
		for j := 1; j <= p.m.k; j++ {
			if s.Has(j) {
				if err := g.AddEdge(p.layout.V1[j-1], p.layout.V2[v]); err != nil {
					panic(err) // unreachable
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

// SnapshotCSR returns round r's topology in CSR form, rebuilding into the
// net's own buffers. Row contents are ascending by construction: the leader
// row lists relays 1..k, each relay row lists the leader (node 0) followed
// by its W-nodes in multigraph order, and each W row lists its relays in
// label order.
func (p *PD2Net) SnapshotCSR(r int) *graph.CSR {
	r = p.clampRound(r)
	if r == p.lastRound {
		return &p.csr
	}
	k, n := p.m.k, p.n

	if cap(p.csr.Offsets) < n+1 {
		p.csr.Offsets = make([]int, n+1)
		p.cur = make([]int, n)
	}
	offsets := p.csr.Offsets[:n+1]
	cur := p.cur[:n]

	// Degree pass. offsets[i+1] temporarily holds deg(i).
	offsets[0] = 0
	offsets[1] = k // leader row
	for j := 1; j <= k; j++ {
		offsets[1+j] = 1 // each relay sees the leader
	}
	for v, row := range p.m.labels {
		s := uint32(row[r])
		d := bits.OnesCount32(s)
		offsets[1+k+v+1] = d
		for j := 1; j <= k; j++ {
			if row[r].Has(j) {
				offsets[1+j]++
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
	if cap(p.csr.Nbrs) < total {
		p.csr.Nbrs = make([]graph.NodeID, total)
	}
	nbrs := p.csr.Nbrs[:total]

	// Fill pass.
	for i := 0; i < n; i++ {
		cur[i] = offsets[i]
	}
	for j := 1; j <= k; j++ {
		nbrs[cur[0]] = graph.NodeID(j) // leader -> relay j
		cur[0]++
		nbrs[cur[j]] = 0 // relay j -> leader, first entry of the row
		cur[j]++
	}
	for v, row := range p.m.labels {
		s := row[r]
		w := graph.NodeID(1 + k + v)
		for j := 1; j <= k; j++ {
			if s.Has(j) {
				nbrs[cur[j]] = w // relay rows fill in ascending v
				cur[j]++
				nbrs[cur[int(w)]] = graph.NodeID(j) // W row fills in label order
				cur[int(w)]++
			}
		}
	}
	p.csr.Offsets, p.csr.Nbrs = offsets, nbrs
	p.lastRound = r
	return &p.csr
}

// satAddInt is the saturating addition used for offset accumulation,
// mirroring graph.satAdd (unexported there) and HistoryCount's convention.
func satAddInt(a, b int) int {
	const maxInt = int(^uint(0) >> 1)
	if a > maxInt-b {
		return maxInt
	}
	return a + b
}
