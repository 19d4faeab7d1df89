package multigraph

import "fmt"

// Union forms the node-disjoint union of two multigraphs over the same
// alphabet and horizon: the nodes of b are appended after the nodes of a.
// Leader observations are additive under union — the structural fact the
// linear system m_r = M_r s_r encodes, checked by property tests:
// Union(a,b).LeaderObservation(r) = a's + b's, pointwise.
func Union(a, b *Multigraph) (*Multigraph, error) {
	if a.k != b.k {
		return nil, fmt.Errorf("multigraph: union of k=%d and k=%d", a.k, b.k)
	}
	if a.horizon != b.horizon {
		return nil, fmt.Errorf("multigraph: union of horizons %d and %d", a.horizon, b.horizon)
	}
	labels := make([][]LabelSet, 0, a.w+b.w)
	for v := 0; v < a.w; v++ {
		labels = append(labels, a.row(v))
	}
	for v := 0; v < b.w; v++ {
		labels = append(labels, b.row(v))
	}
	m, err := New(a.k, labels)
	if err != nil {
		return nil, err
	}
	if len(labels) == 0 {
		m.horizon = a.horizon
	}
	return m, nil
}

// Concat extends each node's schedule of a with the corresponding node's
// schedule of b (the two multigraphs must have the same alphabet and node
// count): the result plays a's rounds, then b's. A node's state history in
// the concatenation is its a-history followed by its b-labels.
func Concat(a, b *Multigraph) (*Multigraph, error) {
	if a.k != b.k {
		return nil, fmt.Errorf("multigraph: concat of k=%d and k=%d", a.k, b.k)
	}
	if a.w != b.w {
		return nil, fmt.Errorf("multigraph: concat of %d and %d nodes", a.w, b.w)
	}
	labels := make([][]LabelSet, a.w)
	for v := range labels {
		row := make([]LabelSet, 0, a.horizon+b.horizon)
		row = append(row, a.row(v)...)
		row = append(row, b.row(v)...)
		labels[v] = row
	}
	m, err := New(a.k, labels)
	if err != nil {
		return nil, err
	}
	if len(labels) == 0 {
		m.horizon = a.horizon + b.horizon
	}
	return m, nil
}

// Truncate returns the prefix of the schedule through the given number of
// rounds.
func (m *Multigraph) Truncate(rounds int) (*Multigraph, error) {
	if rounds < 0 || rounds > m.horizon {
		return nil, fmt.Errorf("multigraph: truncate to %d rounds, horizon %d", rounds, m.horizon)
	}
	labels := make([][]LabelSet, m.w)
	for v := range labels {
		labels[v] = m.row(v)[:rounds]
	}
	out, err := New(m.k, labels)
	if err != nil {
		return nil, err
	}
	if len(labels) == 0 {
		out.horizon = rounds
	}
	return out, nil
}
