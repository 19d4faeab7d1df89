package graph

import (
	"fmt"
	"slices"
)

// CSR is a compressed-sparse-row adjacency view of a graph: the neighbors
// of node v are Nbrs[Offsets[v]:Offsets[v+1]], in ascending order. It is the
// flat-memory representation the round engine reads — at 10⁶
// nodes the map-based Graph adjacency costs hundreds of megabytes and a
// pointer chase per edge, while a CSR is two contiguous arrays.
//
// Invariants (checked by Validate):
//
//	len(Offsets) == N()+1, Offsets[0] == 0, Offsets non-decreasing,
//	Offsets[N()] == len(Nbrs), every row strictly ascending and in range,
//	no self-loops.
//
// A CSR is read-only to everyone but its producer. Graph.CSR builds one
// per state of a graph and shares it with every caller until a mutation
// drops it. A dynet.CSRDynamic may reuse the backing arrays for its next
// snapshot, so one of its CSRs is valid only until it is asked for another
// — the same ownership rule the engine applies to inbox slices. Either
// producer hands out the same *CSR twice in a row only for an unchanged
// topology, so a consumer that validated a pointer need not validate it
// again while it repeats.
type CSR struct {
	Offsets []int
	Nbrs    []NodeID
}

// N returns the number of nodes.
func (c *CSR) N() int {
	if len(c.Offsets) == 0 {
		return 0
	}
	return len(c.Offsets) - 1
}

// Degree returns the number of neighbors of v. Out-of-range v has degree 0.
func (c *CSR) Degree(v NodeID) int {
	if v < 0 || int(v) >= c.N() {
		return 0
	}
	return c.Offsets[v+1] - c.Offsets[v]
}

// Neighbors returns the neighbors of v in ascending order. The returned
// slice aliases the CSR's backing array; callers must not modify it.
func (c *CSR) Neighbors(v NodeID) []NodeID {
	if v < 0 || int(v) >= c.N() {
		return nil
	}
	return c.Nbrs[c.Offsets[v]:c.Offsets[v+1]:c.Offsets[v+1]]
}

// Total returns the total adjacency size Offsets[N()] (twice the edge
// count for an undirected graph).
func (c *CSR) Total() int {
	if len(c.Offsets) == 0 {
		return 0
	}
	return c.Offsets[len(c.Offsets)-1]
}

// Validate checks the CSR invariants in full: offset shape and monotonicity
// (which also rejects a saturated/overflowed offset sum, since a saturated
// Offsets[N()] cannot equal len(Nbrs)), row sortedness, neighbor range, and
// self-loop freedom. O(n + E); the engine runs it once per ingested
// snapshot.
func (c *CSR) Validate() error {
	n := c.N()
	if len(c.Offsets) != n+1 {
		return fmt.Errorf("graph: csr has %d offsets for %d nodes", len(c.Offsets), n)
	}
	if n == 0 {
		if len(c.Nbrs) != 0 {
			return fmt.Errorf("graph: empty csr has %d neighbor entries", len(c.Nbrs))
		}
		return nil
	}
	if c.Offsets[0] != 0 {
		return fmt.Errorf("graph: csr offsets start at %d, want 0", c.Offsets[0])
	}
	for v := 0; v < n; v++ {
		if c.Offsets[v+1] < c.Offsets[v] {
			return fmt.Errorf("graph: csr offsets decrease at node %d (%d -> %d)", v, c.Offsets[v], c.Offsets[v+1])
		}
	}
	if c.Offsets[n] != len(c.Nbrs) {
		return fmt.Errorf("graph: csr claims %d adjacency entries, backing array has %d", c.Offsets[n], len(c.Nbrs))
	}
	for v := 0; v < n; v++ {
		row := c.Nbrs[c.Offsets[v]:c.Offsets[v+1]]
		for i, u := range row {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: csr node %d has out-of-range neighbor %d", v, u)
			}
			if u == NodeID(v) {
				return fmt.Errorf("graph: csr self-loop at node %d", v)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("graph: csr row %d not strictly ascending at position %d", v, i)
			}
		}
	}
	return nil
}

// BFSScratch holds the buffers of CSR.Connected. One scratch value checks
// any number of snapshots and allocates only when the node count grows, so
// a round engine that checks every round's topology stays allocation-free.
type BFSScratch struct {
	seen  []bool
	queue []NodeID
}

// Connected reports whether the graph is connected; the empty and
// single-node graphs are. s supplies the search buffers.
func (c *CSR) Connected(s *BFSScratch) bool {
	n := c.N()
	if n <= 1 {
		return true
	}
	if cap(s.seen) < n {
		s.seen = make([]bool, n)
		s.queue = make([]NodeID, 0, n)
	}
	seen := s.seen[:n]
	clear(seen)
	seen[0] = true
	// Every node enters the queue at most once, so it never outgrows n.
	queue := append(s.queue[:0], 0)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range c.Nbrs[c.Offsets[u]:c.Offsets[u+1]] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	s.queue = queue
	return len(queue) == n
}

// CSR returns the graph's adjacency in CSR form, building it on first use
// and returning the same pointer until AddEdge or RemoveEdge drops it. The
// CSR is shared with every caller, so nobody writes it. Concurrent first
// calls may each build one; the first published wins and every caller
// returns it, so one state of a graph has one CSR.
func (g *Graph) CSR() *CSR {
	if c := g.csr.Load(); c != nil {
		return c
	}
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	c := &CSR{Offsets: make([]int, g.n+1), Nbrs: make([]NodeID, 0, total)}
	for v := 0; v < g.n; v++ {
		base := len(c.Nbrs)
		for u := range g.adj[v] {
			c.Nbrs = append(c.Nbrs, u)
		}
		slices.Sort(c.Nbrs[base:])
		c.Offsets[v+1] = len(c.Nbrs)
	}
	if !g.csr.CompareAndSwap(nil, c) {
		return g.csr.Load()
	}
	return c
}
