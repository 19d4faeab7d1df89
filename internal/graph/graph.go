// Package graph provides undirected simple graphs used as per-round
// snapshots of a dynamic network.
//
// A Graph is a set of nodes {0, ..., n-1} together with a set of
// bidirectional edges. Graphs are the G_r in the paper's Definition 1: a
// dynamic graph is an infinite sequence of these snapshots, one per
// synchronous round. All analysis needed by the reproduction — BFS
// distances, connectivity, distance partitions, flooding — lives here.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// NodeID identifies a node within a graph. Nodes are dense integers in
// [0, N). Identity is a property of the simulation harness, not of the
// algorithms under test: anonymous protocols never observe NodeIDs.
type NodeID int

// Edge is an undirected edge between two nodes. The zero value is the
// self-loop {0,0}, which is never valid in a simple graph.
type Edge struct {
	U, V NodeID
}

// Canonical returns the edge with endpoints ordered so that U <= V.
// Two edges are the same undirected edge iff their canonical forms are equal.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// String renders the edge as "{u,v}" in canonical order.
func (e Edge) String() string {
	c := e.Canonical()
	return fmt.Sprintf("{%d,%d}", c.U, c.V)
}

// Graph is an undirected simple graph over nodes 0..n-1.
// The zero value is an empty graph with no nodes; use New.
//
// Reads are safe for concurrent use; mutation (AddEdge, RemoveEdge) must
// not race with readers — the same contract as the adjacency maps. The
// first sorted-neighbor traversal builds the graph's CSR (see Graph.CSR),
// which later traversals and the round engine read in place, so walking
// every node's neighborhood each round is a slice read, not a map
// iteration and a sort. Mutators drop the CSR.
type Graph struct {
	n   int
	adj []map[NodeID]struct{}
	csr atomic.Pointer[CSR]
}

// New returns an empty graph with n nodes and no edges.
// n must be non-negative; New panics otherwise (programmer error).
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	adj := make([]map[NodeID]struct{}, n)
	for i := range adj {
		adj[i] = make(map[NodeID]struct{})
	}
	return &Graph{n: n, adj: adj}
}

// FromEdges builds a graph with n nodes and the given edges.
// It returns an error if any edge endpoint is out of range or a self-loop.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// MustFromEdges is FromEdges that panics on error. Intended for tests and
// for statically-known fixtures such as the paper's figures.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

func (g *Graph) check(v NodeID) error {
	if v < 0 || int(v) >= g.n {
		return fmt.Errorf("graph: node %d out of range [0,%d)", v, g.n)
	}
	return nil
}

// AddEdge inserts the undirected edge {u,v}. Adding an existing edge is a
// no-op. Self-loops and out-of-range endpoints are errors.
func (g *Graph) AddEdge(u, v NodeID) error {
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.csr.Store(nil)
	return nil
}

// RemoveEdge deletes the undirected edge {u,v} if present.
func (g *Graph) RemoveEdge(u, v NodeID) error {
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.csr.Store(nil)
	return nil
}

// HasEdge reports whether {u,v} is an edge. Out-of-range nodes have no edges.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u < 0 || int(u) >= g.n || v < 0 || int(v) >= g.n {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

// Degree returns |N(v)|, the number of neighbors of v.
func (g *Graph) Degree(v NodeID) int {
	if v < 0 || int(v) >= g.n {
		return 0
	}
	return len(g.adj[v])
}

// Neighbors returns the neighbors of v in ascending order, or nil for an
// out-of-range v. The returned slice is a copy; callers may modify it
// freely.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return slices.Clone(g.CSR().Neighbors(v))
}

// Edges returns all edges in canonical order (sorted by (U,V)).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if NodeID(u) < v {
				out = append(out, Edge{U: NodeID(u), V: v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			c.adj[u][v] = struct{}{}
		}
	}
	return c
}

// Equal reports whether g and h have the same node count and edge set.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n {
		return false
	}
	for u := 0; u < g.n; u++ {
		if len(g.adj[u]) != len(h.adj[u]) {
			return false
		}
		for v := range g.adj[u] {
			if _, ok := h.adj[u][v]; !ok {
				return false
			}
		}
	}
	return true
}

// String renders the graph as "n=<N> edges=[{a,b} {c,d} ...]".
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d edges=[", g.n)
	for i, e := range g.Edges() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(e.String())
	}
	sb.WriteByte(']')
	return sb.String()
}
