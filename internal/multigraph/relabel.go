package multigraph

import "fmt"

// Relabel applies a permutation of the edge labels: perm[j-1] is the new
// label of old label j. Relabeling models the anonymity of the V₁ relay
// layer in the transformed 𝒢(PD)₂ graph — an anonymous leader cannot name
// labels, so views that differ only by a relabeling are indistinguishable
// to it. The receiver is not modified.
func (m *Multigraph) Relabel(perm []int) (*Multigraph, error) {
	if len(perm) != m.k {
		return nil, fmt.Errorf("multigraph: permutation length %d, want %d", len(perm), m.k)
	}
	seen := make([]bool, m.k)
	for _, p := range perm {
		if p < 1 || p > m.k || seen[p-1] {
			return nil, fmt.Errorf("multigraph: %v is not a permutation of 1..%d", perm, m.k)
		}
		seen[p-1] = true
	}
	labels := make([][]LabelSet, m.w)
	for v := range labels {
		row := m.row(v)
		nr := make([]LabelSet, len(row))
		for r, s := range row {
			var ns LabelSet
			for _, j := range s.Labels() {
				ns |= 1 << (perm[j-1] - 1)
			}
			nr[r] = ns
		}
		labels[v] = nr
	}
	return New(m.k, labels)
}

// Permutations enumerates all permutations of 1..k, each usable with
// Relabel. Intended for small k (the lower bound already bites at k = 2).
func Permutations(k int) [][]int {
	var out [][]int
	cur := make([]int, 0, k)
	used := make([]bool, k)
	var rec func()
	rec = func() {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for j := 1; j <= k; j++ {
			if used[j-1] {
				continue
			}
			used[j-1] = true
			cur = append(cur, j)
			rec()
			cur = cur[:len(cur)-1]
			used[j-1] = false
		}
	}
	rec()
	return out
}

// CanonicalUnderRelabeling returns the lexicographically least canonical
// view encoding over all label permutations: the information actually
// available to a leader that cannot name the anonymous V₁ relays. Two
// multigraphs whose views differ but share this invariant are
// indistinguishable in the fully anonymous 𝒢(PD)₂ setting.
func (m *Multigraph) CanonicalUnderRelabeling(rounds int) (string, error) {
	best := ""
	for _, perm := range Permutations(m.k) {
		rm, err := m.Relabel(perm)
		if err != nil {
			return "", err
		}
		view, err := rm.LeaderView(rounds)
		if err != nil {
			return "", err
		}
		c := view.Canonical()
		if best == "" || c < best {
			best = c
		}
	}
	return best, nil
}
