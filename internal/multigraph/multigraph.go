package multigraph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Multigraph is a finite-horizon dynamic bipartite labeled k-multigraph
// M ∈ ℳ(DBL)ₖ: node v ∈ W is connected to the leader at round r by one
// parallel edge per label in labels[v][r]. The horizon is the number of
// scheduled rounds; the lower-bound constructions only ever need a finite
// prefix.
type Multigraph struct {
	k       int
	horizon int
	labels  [][]LabelSet // labels[v][r]
}

// New validates and wraps a label schedule. Every node must have the same
// number of scheduled rounds and a valid (non-empty, within-alphabet) label
// set at each of them.
func New(k int, labels [][]LabelSet) (*Multigraph, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("multigraph: alphabet size k=%d out of range [1,%d]", k, MaxK)
	}
	horizon := 0
	if len(labels) > 0 {
		horizon = len(labels[0])
	}
	cp := make([][]LabelSet, len(labels))
	for v, row := range labels {
		if len(row) != horizon {
			return nil, fmt.Errorf("multigraph: node %d has %d rounds, want %d", v, len(row), horizon)
		}
		for r, s := range row {
			if !s.Valid(k) {
				return nil, fmt.Errorf("multigraph: node %d round %d has invalid label set %v for k=%d", v, r, uint32(s), k)
			}
		}
		cp[v] = append([]LabelSet(nil), row...)
	}
	return &Multigraph{k: k, horizon: horizon, labels: cp}, nil
}

// newOwned wraps a label schedule without validating or copying it. Internal
// constructors that build rows themselves (FromHistoryCounts, Extended) use
// it to skip New's defensive copy; the caller guarantees every row has
// length `horizon` with label sets valid for k, and cedes ownership (rows
// may be shared between nodes — a Multigraph never mutates or exposes its
// backing arrays).
func newOwned(k, horizon int, labels [][]LabelSet) *Multigraph {
	return &Multigraph{k: k, horizon: horizon, labels: labels}
}

// Extended returns a copy of m running `extra` additional rounds in which
// every node carries the label set fill. It is the allocation-light
// primitive behind core.Pair.Extend: one row allocation per node, no
// intermediate schedule.
func (m *Multigraph) Extended(extra int, fill LabelSet) (*Multigraph, error) {
	if extra < 0 {
		return nil, fmt.Errorf("multigraph: negative extension %d", extra)
	}
	if !fill.Valid(m.k) {
		return nil, fmt.Errorf("multigraph: invalid fill label set %v for k=%d", uint32(fill), m.k)
	}
	horizon := m.horizon + extra
	labels := make([][]LabelSet, len(m.labels))
	for v, row := range m.labels {
		nr := make([]LabelSet, horizon)
		copy(nr, row)
		for r := m.horizon; r < horizon; r++ {
			nr[r] = fill
		}
		labels[v] = nr
	}
	return newOwned(m.k, horizon, labels), nil
}

// FromHistoryCounts builds a multigraph from a count-per-history vector:
// counts[i] nodes follow the history HistoryFromIndex(i, length, k).
// This is how the kernel package's solution vectors s_r become concrete
// multigraphs (each count vector with non-negative entries is realizable,
// as used in Lemma 5's proof).
func FromHistoryCounts(k, length int, counts []int) (*Multigraph, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("multigraph: alphabet size k=%d out of range [1,%d]", k, MaxK)
	}
	if want := HistoryCount(length, k); len(counts) != want {
		return nil, fmt.Errorf("multigraph: %d counts for %d histories of length %d", len(counts), want, length)
	}
	total := 0
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("multigraph: negative count %d for history %d", c, i)
		}
		total += c
	}
	labels := make([][]LabelSet, 0, total)
	for i, c := range counts {
		if c == 0 {
			continue // skip the (typically vast) unpopulated histories
		}
		// Nodes on the same history share one row; rows are never mutated
		// or exposed, so sharing is safe (see newOwned).
		h := HistoryFromIndex(i, length, k)
		for j := 0; j < c; j++ {
			labels = append(labels, []LabelSet(h))
		}
	}
	// HistoryFromIndex emits valid label sets by construction and every row
	// has length `length`, so the owned constructor applies. It also keeps
	// the requested horizon for W=0 multigraphs (a lone leader), which New
	// could not infer from an empty schedule.
	return newOwned(k, length, labels), nil
}

// Random returns a multigraph whose label sets are drawn uniformly from the
// valid symbols, seeded for reproducibility. Draws are row-major: node 0's
// rounds first. The schedule is drawn into one w·horizon array, each node's
// row a capped slice of it, and owned as drawn (see newOwned). With w = 0
// the horizon is 0, as New infers it from an empty schedule.
func Random(k, w, horizon int, seed int64) (*Multigraph, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("multigraph: alphabet size k=%d out of range [1,%d]", k, MaxK)
	}
	if w < 0 || horizon < 0 {
		return nil, fmt.Errorf("multigraph: negative size w=%d horizon=%d", w, horizon)
	}
	if horizon > 0 && w > math.MaxInt/horizon {
		return nil, fmt.Errorf("multigraph: schedule of %d nodes × %d rounds overflows int", w, horizon)
	}
	if w == 0 {
		horizon = 0
	}
	rng := rand.New(rand.NewSource(seed))
	symbols := SymbolCount(k)
	cells := make([]LabelSet, w*horizon)
	labels := make([][]LabelSet, w)
	for v := range labels {
		row := cells[v*horizon : (v+1)*horizon : (v+1)*horizon]
		for r := range row {
			row[r] = SymbolFromIndex(rng.Intn(symbols))
		}
		labels[v] = row
	}
	return newOwned(k, horizon, labels), nil
}

// K returns the label alphabet size.
func (m *Multigraph) K() int { return m.k }

// W returns |W|, the number of non-leader nodes. The counting problem asks
// the leader to output this value.
func (m *Multigraph) W() int { return len(m.labels) }

// Horizon returns the number of scheduled rounds.
func (m *Multigraph) Horizon() int { return m.horizon }

// LabelsAt returns L(v, r), the label set of node v at round r.
func (m *Multigraph) LabelsAt(v, r int) (LabelSet, error) {
	if v < 0 || v >= len(m.labels) {
		return 0, fmt.Errorf("multigraph: node %d out of range [0,%d)", v, len(m.labels))
	}
	if r < 0 || r >= m.horizon {
		return 0, fmt.Errorf("multigraph: round %d out of range [0,%d)", r, m.horizon)
	}
	return m.labels[v][r], nil
}

// StateOf returns S(v, r): node v's history of label sets through round
// r-1. StateOf(v, 0) is the empty (⊥) history.
func (m *Multigraph) StateOf(v, r int) (History, error) {
	if v < 0 || v >= len(m.labels) {
		return nil, fmt.Errorf("multigraph: node %d out of range [0,%d)", v, len(m.labels))
	}
	if r < 0 || r > m.horizon {
		return nil, fmt.Errorf("multigraph: round %d out of range [0,%d]", r, m.horizon)
	}
	return History(m.labels[v][:r]).Prefix(r), nil
}

// HistoryCounts returns the count-per-history vector for histories through
// round `length`: entry i is the number of nodes whose state history of
// length `length` has index i. This is the ground-truth solution vector s
// that the leader's linear system constrains.
func (m *Multigraph) HistoryCounts(length int) ([]int, error) {
	if length < 0 || length > m.horizon {
		return nil, fmt.Errorf("multigraph: length %d out of range [0,%d]", length, m.horizon)
	}
	counts := make([]int, HistoryCount(length, m.k))
	for v := range m.labels {
		counts[History(m.labels[v][:length]).Index(m.k)]++
	}
	return counts, nil
}

// Observation is C(v_l, r) (Definition 7): for each label j and each
// neighbor state S, the number of nodes with state S connected to the
// leader by an edge labeled j at round r. Keys are (label, state-key)
// pairs.
type Observation map[ObsKey]int

// ObsKey identifies one (label, neighbor-state) class within an
// observation.
type ObsKey struct {
	Label    int
	StateKey string
}

// LeaderObservation computes C(v_l, r) for round r: the multiset of
// (edge label, sender state) pairs the leader receives, assuming the
// canonical full-information protocol in which every node sends its state
// each round (the paper notes the leader state "can be constructed by a
// simple message passing protocol").
func (m *Multigraph) LeaderObservation(r int) (Observation, error) {
	if r < 0 || r >= m.horizon {
		return nil, fmt.Errorf("multigraph: round %d out of range [0,%d)", r, m.horizon)
	}
	obs := make(Observation)
	for v := range m.labels {
		state := History(m.labels[v][:r])
		key := state.Key()
		for _, j := range m.labels[v][r].Labels() {
			obs[ObsKey{Label: j, StateKey: key}]++
		}
	}
	return obs, nil
}

// LeaderView is the leader state S(v_l, rounds): the sequence of
// observations for rounds 0..rounds-1. Counting algorithms see only this.
type LeaderView []Observation

// LeaderView returns the leader's state after `rounds` completed rounds.
func (m *Multigraph) LeaderView(rounds int) (LeaderView, error) {
	if rounds < 0 || rounds > m.horizon {
		return nil, fmt.Errorf("multigraph: rounds %d out of range [0,%d]", rounds, m.horizon)
	}
	view := make(LeaderView, rounds)
	for r := 0; r < rounds; r++ {
		obs, err := m.LeaderObservation(r)
		if err != nil {
			return nil, err
		}
		view[r] = obs
	}
	return view, nil
}

// Canonical returns a canonical string encoding of the view. Two views are
// indistinguishable to the leader iff their canonical encodings are equal —
// this is the operational meaning of Lemma 5's "same state S(v_l, r)".
func (v LeaderView) Canonical() string {
	var sb strings.Builder
	for r, obs := range v {
		fmt.Fprintf(&sb, "r%d:", r)
		keys := make([]ObsKey, 0, len(obs))
		for k := range obs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Label != keys[j].Label {
				return keys[i].Label < keys[j].Label
			}
			return keys[i].StateKey < keys[j].StateKey
		})
		for _, k := range keys {
			fmt.Fprintf(&sb, "(%d,[%s])x%d;", k.Label, k.StateKey, obs[k])
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

// Equal reports whether two leader views are identical.
func (v LeaderView) Equal(other LeaderView) bool {
	return v.Canonical() == other.Canonical()
}
