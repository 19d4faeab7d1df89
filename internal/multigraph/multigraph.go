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
// parallel edge per label in L(v, r). The horizon is the number of
// scheduled rounds; the lower-bound constructions only ever need a finite
// prefix.
//
// The schedule is one flat array of w·horizon cells, node-major: row v,
// node v's label sets, is cells[v·horizon : (v+1)·horizon]. It keeps w
// itself, because a zero horizon leaves no cells to count nodes by.
type Multigraph struct {
	k       int
	w       int
	horizon int
	cells   []LabelSet // L(v, r) at cells[v·horizon + r]
}

// row returns node v's label sets, capped so that an append cannot reach
// the next node's row.
func (m *Multigraph) row(v int) []LabelSet {
	lo, hi := v*m.horizon, (v+1)*m.horizon
	return m.cells[lo:hi:hi]
}

// cellCount returns w·horizon, the length of a flat schedule, or an error
// when the product overflows int.
func cellCount(w, horizon int) (int, error) {
	if horizon > 0 && w > math.MaxInt/horizon {
		return 0, fmt.Errorf("multigraph: schedule of %d nodes × %d rounds overflows int", w, horizon)
	}
	return w * horizon, nil
}

// New validates a label schedule and copies it into one flat array. Every
// node must have the same number of scheduled rounds and a valid
// (non-empty, within-alphabet) label set at each of them.
func New(k int, labels [][]LabelSet) (*Multigraph, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("multigraph: alphabet size k=%d out of range [1,%d]", k, MaxK)
	}
	horizon := 0
	if len(labels) > 0 {
		horizon = len(labels[0])
	}
	for v, row := range labels {
		if len(row) != horizon {
			return nil, fmt.Errorf("multigraph: node %d has %d rounds, want %d", v, len(row), horizon)
		}
		for r, s := range row {
			if !s.Valid(k) {
				return nil, fmt.Errorf("multigraph: node %d round %d has invalid label set %v for k=%d", v, r, uint32(s), k)
			}
		}
	}
	n, err := cellCount(len(labels), horizon)
	if err != nil {
		return nil, err
	}
	cells := make([]LabelSet, 0, n)
	for _, row := range labels {
		cells = append(cells, row...)
	}
	return newOwned(k, len(labels), horizon, cells), nil
}

// newOwned wraps a flat schedule without validating or copying it. The
// constructors that fill new cells themselves (Extended,
// FromHistoryCounts) use it to skip New's defensive copy: the caller
// guarantees len(cells) = w·horizon with label sets valid for k, and cedes
// the array.
func newOwned(k, w, horizon int, cells []LabelSet) *Multigraph {
	return &Multigraph{k: k, w: w, horizon: horizon, cells: cells}
}

// Extended returns a copy of m running `extra` additional rounds in which
// every node carries the label set fill. It is the allocation-light
// primitive behind core.Pair.Extend: one flat array, no intermediate
// schedule.
func (m *Multigraph) Extended(extra int, fill LabelSet) (*Multigraph, error) {
	if extra < 0 {
		return nil, fmt.Errorf("multigraph: negative extension %d", extra)
	}
	if !fill.Valid(m.k) {
		return nil, fmt.Errorf("multigraph: invalid fill label set %v for k=%d", uint32(fill), m.k)
	}
	horizon := m.horizon + extra
	n, err := cellCount(m.w, horizon)
	if err != nil {
		return nil, err
	}
	cells := make([]LabelSet, n)
	for v := 0; v < m.w; v++ {
		nr := cells[v*horizon : (v+1)*horizon]
		copy(nr, m.row(v))
		for r := m.horizon; r < horizon; r++ {
			nr[r] = fill
		}
	}
	return newOwned(m.k, m.w, horizon, cells), nil
}

// FromHistoryCounts builds a multigraph from a count-per-history vector:
// counts[i] nodes follow the history HistoryFromIndex(i, length, k), each
// in a row of its own, in ascending i. This is how the kernel package's
// solution vectors s_r become concrete multigraphs (each count vector with
// non-negative entries is realizable, as used in Lemma 5's proof). The
// horizon is `length` even with no nodes (a lone leader), which New could
// not infer from an empty schedule.
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
		if c > math.MaxInt-total {
			return nil, fmt.Errorf("multigraph: node count overflows int at history %d", i)
		}
		total += c
	}
	n, err := cellCount(total, length)
	if err != nil {
		return nil, err
	}
	cells := make([]LabelSet, n)
	off := 0
	for i, c := range counts {
		if c == 0 || length == 0 {
			continue // the (typically vast) unpopulated histories, or empty rows
		}
		// Decode history i into the first row, then copy it into the
		// other c-1.
		first := cells[off : off+length]
		decodeHistory(first, i, k)
		off += length
		for j := 1; j < c; j++ {
			off += copy(cells[off:off+length], first)
		}
	}
	return newOwned(k, total, length, cells), nil
}

// Random returns a multigraph whose label sets are drawn uniformly from the
// valid symbols, seeded for reproducibility: it is Redraw on a new
// multigraph with rand.NewSource(seed).
func Random(k, w, horizon int, seed int64) (*Multigraph, error) {
	m := new(Multigraph)
	if err := m.Redraw(k, w, horizon, rand.NewSource(seed)); err != nil {
		return nil, err
	}
	return m, nil
}

// Redraw refills m in place with a random schedule of w nodes and horizon
// rounds over alphabet k: L(v, r) is SymbolFromIndex of the
// (v·horizon + r)-th value of rand.New(src).Intn(SymbolCount(k)), drawn
// row-major straight into the flat schedule (see fillSymbols). With w = 0
// the horizon is 0, as New infers it from an empty schedule. It reuses m's
// cells and grows them only when they are too small, so a caller that
// draws many schedules (the S1 campaign's jobs) reseeds one source and
// redraws one multigraph. Anything that still reads m sees the new
// schedule; on an error m is left as it was.
func (m *Multigraph) Redraw(k, w, horizon int, src rand.Source) error {
	if k < 1 || k > MaxK {
		return fmt.Errorf("multigraph: alphabet size k=%d out of range [1,%d]", k, MaxK)
	}
	if w < 0 || horizon < 0 {
		return fmt.Errorf("multigraph: negative size w=%d horizon=%d", w, horizon)
	}
	n, err := cellCount(w, horizon)
	if err != nil {
		return err
	}
	if w == 0 {
		horizon = 0
	}
	if cap(m.cells) < n {
		m.cells = make([]LabelSet, n)
	}
	m.k, m.w, m.horizon, m.cells = k, w, horizon, m.cells[:n]
	fillSymbols(m.cells, src, int32(SymbolCount(k)))
	return nil
}

// fillSymbols sets each cell to SymbolFromIndex of the next value of
// rand.New(src).Intn(n), for 0 < n < 2^31, and calls src.Int63 exactly as
// often as Intn would. Intn takes Int31n's path there, with the bound
// computed once instead of per draw (see intn). For k = 2 (n = 3) the
// modulus is a constant, which the compiler turns into a multiply.
func fillSymbols(cells []LabelSet, src rand.Source, n int32) {
	if n == 3 {
		for i := range cells {
			cells[i] = SymbolFromIndex(int(intn(src, 3, intnBound(3))))
		}
		return
	}
	bound := intnBound(n)
	for i := range cells {
		cells[i] = SymbolFromIndex(int(intn(src, n, bound)))
	}
}

// intnBound is the largest candidate Int31n accepts for n: (2^31−1) − 2^31
// mod n. For a power of two it is 2^31−1, so no candidate is rejected.
func intnBound(n int32) int32 { return int32((1<<31 - 1) - (1<<31)%uint32(n)) }

// intn is rand.Rand.Int31n(n) on src, given n's bound: a candidate is the
// top 31 bits of one Int63, a candidate above the bound is rejected for
// another, and the value is the candidate mod n. For a power of two n that
// is Int31n's mask, as candidates are non-negative.
func intn(src rand.Source, n, bound int32) int32 {
	for {
		if v := int32(src.Int63() >> 32); v <= bound {
			return v % n
		}
	}
}

// K returns the label alphabet size.
func (m *Multigraph) K() int { return m.k }

// W returns |W|, the number of non-leader nodes. The counting problem asks
// the leader to output this value.
func (m *Multigraph) W() int { return m.w }

// Horizon returns the number of scheduled rounds.
func (m *Multigraph) Horizon() int { return m.horizon }

// LabelsAt returns L(v, r), the label set of node v at round r.
func (m *Multigraph) LabelsAt(v, r int) (LabelSet, error) {
	if v < 0 || v >= m.w {
		return 0, fmt.Errorf("multigraph: node %d out of range [0,%d)", v, m.w)
	}
	if r < 0 || r >= m.horizon {
		return 0, fmt.Errorf("multigraph: round %d out of range [0,%d)", r, m.horizon)
	}
	return m.cells[v*m.horizon+r], nil
}

// StateOf returns S(v, r): node v's history of label sets through round
// r-1. StateOf(v, 0) is the empty (⊥) history.
func (m *Multigraph) StateOf(v, r int) (History, error) {
	if v < 0 || v >= m.w {
		return nil, fmt.Errorf("multigraph: node %d out of range [0,%d)", v, m.w)
	}
	if r < 0 || r > m.horizon {
		return nil, fmt.Errorf("multigraph: round %d out of range [0,%d]", r, m.horizon)
	}
	return History(m.row(v)).Prefix(r), nil
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
	for v := 0; v < m.w; v++ {
		counts[History(m.row(v)[:length]).Index(m.k)]++
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
	for v := 0; v < m.w; v++ {
		row := m.row(v)
		key := History(row[:r]).Key()
		for _, j := range row[r].Labels() {
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
