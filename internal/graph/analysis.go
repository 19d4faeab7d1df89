package graph

// Unreachable is the distance reported for nodes with no path to the source.
const Unreachable = -1

// BFSDistances returns d_r(src, v) for every node v: the minimum number of
// edges on a path from src to v, or Unreachable if no path exists.
func (g *Graph) BFSDistances(src NodeID) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if src < 0 || int(src) >= g.n {
		return dist
	}
	dist[src] = 0
	c := g.CSR()
	queue := make([]NodeID, 0, g.n)
	queue = append(queue, src)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range c.Nbrs[c.Offsets[u]:c.Offsets[u+1]] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFSDistances(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum distance from v to any node, or
// Unreachable if some node cannot be reached from v.
func (g *Graph) Eccentricity(v NodeID) int {
	dist := g.BFSDistances(v)
	ecc := 0
	for _, d := range dist {
		if d == Unreachable {
			return Unreachable
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the static diameter of the graph: the maximum pairwise
// distance, or Unreachable if the graph is disconnected.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		ecc := g.Eccentricity(NodeID(v))
		if ecc == Unreachable {
			return Unreachable
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}
