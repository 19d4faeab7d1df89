package kernel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"anondyn/internal/multigraph"
	anonobs "anondyn/internal/obs"
)

// solverIndexLimit is the longest node-state history the incremental solver
// keys by int64 index: 3^39 < MaxInt64 < 3^40, so histories through length
// 39 (multigraph.MaxIndexedRounds, the capacity chainnet's states share)
// have exact base-3 indices. Past it the sparse layer spills to canonical
// History.Key strings. A package variable so tests can force the spill at
// tiny lengths.
var solverIndexLimit = multigraph.MaxIndexedRounds

// obsPair aggregates one state's per-label counts within a round's
// observation: o1/o2 are the numbers of label-1/label-2 edges from nodes in
// that state.
type obsPair struct{ o1, o2 int }

// stateForm is one entry of the sparse layer: the form of the observable
// state whose History.Index(2) is state.
type stateForm struct {
	state int64
	f     form
}

// IncrementalSolver maintains the leader's count interval across rounds
// without re-walking the whole state tree. Conceptually round t has one
// linear form a + b·c0 per node state (3^{t+1} of them, the columns of the
// paper's M_t); the solver exploits two structural facts to keep its working
// set tiny:
//
//   - Only states descending from previously observed states can ever hold
//     nodes — every node is connected to the leader every round, so states
//     the observation skips are provably unpopulated, and so are their whole
//     subtrees. Their forms still constrain the interval, but they evolve
//     observation-independently: a form (a, b) branches into (a, b) twice
//     (children ∘{1}, ∘{2}) and (-a, -b) once (child ∘{1,2}).
//
//   - Duplicate forms are therefore massively redundant, and the Lemma-3
//     kernel structure needs only the set of forms, not which state carries
//     which. The solver keeps the (few) states the next observation may
//     mention exactly, in `sparse`, and coalesces everything else into
//     `bulk` multiplicity classes with the doubling rule
//     new[g] = 2·old[g] + old[-g].
//
// `sparse` is a slice sorted by state index, and a round walks it and the
// observation, sorted the same way, in one merge pass. The children
// 3i+{0,1,2} of ascending parents come out ascending, so a round hashes no
// state and never sorts the sparse layer. Past state length
// solverIndexLimit the layer spills to maps keyed by History.Key.
//
// This turns the old O(3^{t+1}) AddRound into O(observed states), which is
// bounded by 3·|W|. Intervals are bit-for-bit those of the batch solver
// (SolveCountInterval) on every observation sequence a real execution can
// produce; an observation naming a provably unpopulated state — which no
// execution produces, and which the pre-coalescing solver would silently
// fold in — now fails loudly.
//
// Protocol leaders (core.CountOnMultigraph, chainnet) use it to re-evaluate
// their uncertainty every round; the allocation-free hot path is
// AddRoundIndexed, fed by multigraph.ObservationStream or, already sorted,
// by chainnet's relay facts.
//
// The zero value is not usable; construct with NewIncrementalSolver.
type IncrementalSolver struct {
	rounds int
	total  int // R1(⊥) + R2(⊥); n = total - c0

	// sparse holds the forms of observable states in ascending
	// History.Index order while state length <= solverIndexLimit, then
	// spills to History.Key strings (sparseStr, strMode). bulk coalesces
	// every other form into multiplicities, saturating at MaxInt (only the
	// form set matters for the interval). The *Next twins are double
	// buffers swapped each round so steady-state AddRounds allocate
	// nothing beyond amortized growth.
	sparse, sparseNext       []stateForm
	sparseStr, sparseStrNext map[string]form
	strMode                  bool
	bulk, bulkNext           map[form]int

	// agg is the round's observation sorted by state with duplicates
	// summed, for input that arrives unsorted (reused); aggStr is the
	// string-mode aggregation.
	agg    []multigraph.IndexedObsEntry
	aggStr map[string]obsPair

	// obsRounds/obsRoundNS report per-round solve work through the
	// process-wide collector; both nil (free) when the process is
	// unobserved. Resolved once at construction, never per round.
	obsRounds  *anonobs.Counter
	obsRoundNS *anonobs.Histogram
}

// NewIncrementalSolver returns a solver with no observations yet.
func NewIncrementalSolver() *IncrementalSolver {
	s := &IncrementalSolver{
		bulk:     make(map[form]int),
		bulkNext: make(map[form]int),
	}
	s.obsRounds, s.obsRoundNS = incrementalMetrics()
	return s
}

// Rounds returns the number of observations added.
func (s *IncrementalSolver) Rounds() int { return s.rounds }

// AddRound incorporates the observation of the next round (round index
// s.Rounds()) and returns the updated interval of consistent sizes.
// Entries with labels outside {1, 2}, malformed state keys, or state keys
// of the wrong length are ignored, exactly as the pre-coalescing solver's
// key lookups never matched them.
func (s *IncrementalSolver) AddRound(obs multigraph.Observation) (Interval, error) {
	start := s.obsRoundNS.Start()
	defer func() {
		s.obsRounds.Inc()
		s.obsRoundNS.Stop(start)
	}()
	if s.strMode {
		clear(s.aggStr)
		for key, n := range obs {
			if key.Label != 1 && key.Label != 2 {
				continue
			}
			if _, err := historyFromKey(key.StateKey, s.rounds); err != nil {
				continue
			}
			p := s.aggStr[key.StateKey]
			if key.Label == 1 {
				p.o1 += n
			} else {
				p.o2 += n
			}
			s.aggStr[key.StateKey] = p
		}
		return s.addRoundObs(nil)
	}
	s.agg = s.agg[:0]
	for key, n := range obs {
		if key.Label != 1 && key.Label != 2 {
			continue
		}
		y, err := historyFromKey(key.StateKey, s.rounds)
		if err != nil {
			continue
		}
		e := multigraph.IndexedObsEntry{State: int64(y.Index(2))}
		if key.Label == 1 {
			e.Count1 = n
		} else {
			e.Count2 = n
		}
		s.agg = append(s.agg, e)
	}
	return s.addRoundObs(s.sortAgg())
}

// AddRoundIndexed is AddRound for indexed observations: the hot path of the
// protocol leaders, allocation-free in steady state. Entries may come in
// any order, and duplicate entries for a state are summed. Entries already
// in strictly ascending state order (chainnet's merged relay facts) are
// read in place; any other order (multigraph.ObservationStream's
// first-seen order) is sorted in a reused copy first. Once the solver has
// spilled to string keys (state length beyond solverIndexLimit) indexed
// observations can no longer address states and the caller must switch to
// AddRound.
func (s *IncrementalSolver) AddRoundIndexed(entries []multigraph.IndexedObsEntry) (Interval, error) {
	start := s.obsRoundNS.Start()
	defer func() {
		s.obsRounds.Inc()
		s.obsRoundNS.Stop(start)
	}()
	if s.strMode {
		return Interval{}, fmt.Errorf("kernel: indexed observations unavailable past state length %d; use AddRound", solverIndexLimit)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].State <= entries[i-1].State {
			s.agg = append(s.agg[:0], entries...)
			entries = s.sortAgg()
			break
		}
	}
	return s.addRoundObs(entries)
}

// sortAgg sorts s.agg by state and sums the entries of each state into one,
// in place, and returns the result.
func (s *IncrementalSolver) sortAgg() []multigraph.IndexedObsEntry {
	slices.SortFunc(s.agg, func(a, b multigraph.IndexedObsEntry) int {
		return cmp.Compare(a.State, b.State)
	})
	out := s.agg[:0]
	for _, e := range s.agg {
		if n := len(out); n > 0 && out[n-1].State == e.State {
			out[n-1].Count1 += e.Count1
			out[n-1].Count2 += e.Count2
			continue
		}
		out = append(out, e)
	}
	s.agg = out
	return out
}

// addRoundObs folds the observation of round s.rounds into the solver
// state: obs, in strictly ascending state order, in index mode; s.aggStr
// in string mode. An error leaves the solver as it was.
func (s *IncrementalSolver) addRoundObs(obs []multigraph.IndexedObsEntry) (Interval, error) {
	// Children outgrow the int64 index at this round? Expand into string
	// keys and stay there.
	spill := !s.strMode && s.rounds+1 > solverIndexLimit

	if s.rounds == 0 {
		// Round 0 is the generic step applied to the single virtual parent
		// ⊥ with form total - c0 (evaluating to |W|): its children are the
		// paper's initial forms R1-c0, R2-c0, c0.
		s.total = 0
		if len(obs) > 0 && obs[0].State == 0 {
			s.total = obs[0].Count1 + obs[0].Count2
		}
		s.sparse = append(s.sparse[:0], stateForm{state: 0, f: form{a: s.total, b: -1}})
	}

	// Expand observed sparse states exactly; evict the rest into bulk.
	var err error
	if s.strMode {
		err = s.expandStr()
	} else {
		err = s.expand(obs, spill)
	}
	if err != nil {
		clear(s.sparseStrNext)
		clear(s.bulkNext)
		return Interval{}, err
	}

	// Unpopulated classes branch observation-independently: twice into
	// themselves, once into their reflection.
	for g, m := range s.bulk {
		s.bulkNext[g] = satAdd(s.bulkNext[g], satAdd(m, m))
		ng := form{a: -g.a, b: -g.b}
		s.bulkNext[ng] = satAdd(s.bulkNext[ng], m)
	}

	// Swap double buffers.
	if s.strMode || spill {
		s.sparseStr, s.sparseStrNext = s.sparseStrNext, s.sparseStr
		clear(s.sparseStrNext)
		if spill {
			s.strMode = true
			s.sparse = s.sparse[:0]
			if s.aggStr == nil {
				s.aggStr = make(map[string]obsPair)
			}
		}
	} else {
		s.sparse, s.sparseNext = s.sparseNext, s.sparse
	}
	s.bulk, s.bulkNext = s.bulkNext, s.bulk
	clear(s.bulkNext)

	s.rounds++
	return s.Interval()
}

// expand walks the sparse layer and the observation together, both in
// ascending state order. An observed state branches into its three children
// in sparseNext (or, when spill is set, under string keys); a state the
// observation skips is evicted into bulk; an observed state outside the
// sparse layer is an orphan.
func (s *IncrementalSolver) expand(obs []multigraph.IndexedObsEntry, spill bool) error {
	next := s.sparseNext[:0]
	j := 0
	for _, sf := range s.sparse {
		for ; j < len(obs) && obs[j].State < sf.state; j++ {
			if observed(obs[j]) {
				return s.orphan(obs[j].State)
			}
		}
		if j == len(obs) || obs[j].State != sf.state || !observed(obs[j]) {
			s.evict(sf.f)
			continue
		}
		c0, c1, c2 := childForms(sf.f, obsPair{o1: obs[j].Count1, o2: obs[j].Count2})
		j++
		if spill {
			s.spillStr(multigraph.HistoryFromIndex(int(sf.state), s.rounds, 2).Key(), c0, c1, c2)
			continue
		}
		i := 3 * sf.state
		next = append(next, stateForm{i, c0}, stateForm{i + 1, c1}, stateForm{i + 2, c2})
	}
	for ; j < len(obs); j++ {
		if observed(obs[j]) {
			return s.orphan(obs[j].State)
		}
	}
	s.sparseNext = next
	return nil
}

// expandStr is expand in string mode, over the maps sparseStr and aggStr.
func (s *IncrementalSolver) expandStr() error {
	matched, observedN := 0, 0
	for key, f := range s.sparseStr {
		if p, ok := s.aggStr[key]; ok && (p.o1 != 0 || p.o2 != 0) {
			matched++
			c0, c1, c2 := childForms(f, p)
			s.spillStr(key, c0, c1, c2)
		} else {
			s.evict(f)
		}
	}
	for _, p := range s.aggStr {
		if p.o1 != 0 || p.o2 != 0 {
			observedN++
		}
	}
	if matched == observedN {
		return nil
	}
	for key, p := range s.aggStr {
		if p.o1 != 0 || p.o2 != 0 {
			if _, ok := s.sparseStr[key]; !ok {
				return fmt.Errorf("kernel: round-%d observation names state %q, which no consistent execution populates", s.rounds, key)
			}
		}
	}
	return fmt.Errorf("kernel: round-%d observation names an unpopulated state", s.rounds)
}

// observed reports whether an observation entry counts any edge.
func observed(e multigraph.IndexedObsEntry) bool { return e.Count1 != 0 || e.Count2 != 0 }

// orphan is the error for an observed state outside the sparse support:
// such a state provably holds zero nodes, so no execution emits it, and
// folding it in silently (as the pre-coalescing solver did) would corrupt
// the interval.
func (s *IncrementalSolver) orphan(state int64) error {
	return fmt.Errorf("kernel: round-%d observation names state index %d, which no consistent execution populates", s.rounds, state)
}

// childForms applies the paper's per-state recurrence: a parent with form f
// (count of nodes in that state) and observed per-label counts p splits
// into children ∘{1}, ∘{2}, ∘{1,2} with counts f-o2, f-o1, o1+o2-f.
func childForms(f form, p obsPair) (form, form, form) {
	return form{a: f.a - p.o2, b: f.b},
		form{a: f.a - p.o1, b: f.b},
		form{a: p.o1 + p.o2 - f.a, b: -f.b}
}

// spillStr stores the three children of parent state `key` under canonical
// child keys.
func (s *IncrementalSolver) spillStr(key string, c0, c1, c2 form) {
	if s.sparseStrNext == nil {
		s.sparseStrNext = make(map[string]form)
	}
	s.sparseStrNext[childKey(key, 1)] = c0
	s.sparseStrNext[childKey(key, 2)] = c1
	s.sparseStrNext[childKey(key, 3)] = c2
}

// childKey extends a canonical History.Key with one label-set bitmask.
func childKey(parent string, mask int) string {
	d := strconv.Itoa(mask)
	if parent == "" {
		return d
	}
	return parent + "." + d
}

// evict moves an unobservable parent's children into bulk: two copies of
// the parent form, one of its reflection.
func (s *IncrementalSolver) evict(f form) {
	s.bulkNext[f] = satAdd(s.bulkNext[f], 2)
	nf := form{a: -f.a, b: -f.b}
	s.bulkNext[nf] = satAdd(s.bulkNext[nf], 1)
}

// satAdd returns a+b for non-negative operands, saturating at MaxInt.
func satAdd(a, b int) int {
	c := a + b
	if c < a {
		return math.MaxInt
	}
	return c
}

// Interval returns the current interval of consistent sizes. Before any
// observation it is unbounded.
func (s *IncrementalSolver) Interval() (Interval, error) {
	if s.rounds == 0 {
		return Interval{MinSize: 0, Unbounded: true}, nil
	}
	const unset = int(^uint(0) >> 1)
	lo, hi := 0, unset
	for _, sf := range s.sparse {
		if f := sf.f; f.b > 0 {
			if c := -f.a; c > lo {
				lo = c
			}
		} else if f.a < hi {
			hi = f.a
		}
	}
	for _, f := range s.sparseStr {
		if f.b > 0 {
			if c := -f.a; c > lo {
				lo = c
			}
		} else if f.a < hi {
			hi = f.a
		}
	}
	for f := range s.bulk {
		if f.b > 0 {
			if c := -f.a; c > lo {
				lo = c
			}
		} else if f.a < hi {
			hi = f.a
		}
	}
	if hi == unset {
		return Interval{}, fmt.Errorf("kernel: no upper constraint on c0 (malformed observations)")
	}
	if lo > hi {
		return Interval{Empty: true}, nil
	}
	return Interval{MinSize: s.total - hi, MaxSize: s.total - lo}, nil
}
