package kernel

import (
	"fmt"
	"math"
	"slices"

	"anondyn/internal/multigraph"
	anonobs "anondyn/internal/obs"
)

// stateForm is one entry of the sparse layer: the form of the observable
// state whose History.Index(2) is state.
type stateForm struct {
	state int64
	f     form
}

// IncrementalSolver maintains the leader's count interval across rounds
// without re-walking the whole state tree. Conceptually round t has one
// linear form a + b·c0 per node state (3^{t+1} of them, the columns of the
// paper's M_t); the solver keeps only the states the next observation may
// mention, because every other form pins c0:
//
//   - Only states descending from previously observed states can ever hold
//     nodes — every node is connected to the leader every round, so a state
//     the observation skips provably holds none, and neither does its
//     subtree. Its form a + b·c0 is therefore zero, and since b = ±1 (the
//     kernel's sign pattern, Lemmas 2–4) that fixes c0 = −a·b. Its
//     children's forms, two copies of the parent's and one of its
//     reflection, add nothing beyond that.
//
//   - So an evicted state contributes exactly the two bounds c0 ≥ −a·b and
//     c0 ≤ −a·b, and the solver keeps the tightest of them in two ints,
//     pinLo and pinHi.
//
// `sparse` is a slice sorted by state index, and a round walks it and the
// observation, sorted the same way, in one merge pass. The children
// 3i+{0,1,2} of ascending parents come out ascending, so a round hashes no
// state and never sorts the sparse layer. States are keyed by their int64
// History.Index(2), which is exact through length
// multigraph.MaxIndexedRounds; a round that would extend them past it
// returns multigraph.ErrIndexCapacity, as multigraph.ObservationStream does
// at the same point. A leader needs that round only while its interval is
// still ambiguous, which takes about 2·10^18 nodes.
//
// A round costs O(observed states), which is bounded by 3·|W|. Intervals
// are bit-for-bit those of the batch solver (SolveCountInterval) on every
// observation sequence a real execution can produce; an observation naming
// a provably unpopulated state — which no execution produces — fails
// loudly.
//
// Protocol leaders (core.CountOnMultigraph, chainnet) use it to re-evaluate
// their uncertainty every round, fed by multigraph.ObservationStream or by
// chainnet's merged relay facts, both in strictly ascending state order.
//
// The zero value is not usable; construct with NewIncrementalSolver, or
// Reset a zero solver before its first round.
type IncrementalSolver struct {
	rounds int
	total  int // R1(⊥) + R2(⊥); n = total - c0

	// sparse holds the forms of observable states in ascending
	// History.Index order; sparseNext is its double buffer, swapped each
	// round so steady-state rounds allocate nothing beyond amortized
	// growth.
	sparse, sparseNext []stateForm

	// pinLo and pinHi are the tightest bounds on c0 that evicted states
	// impose: the largest and the smallest −a·b over their forms.
	pinLo, pinHi int

	// obsRounds/obsRoundNS report per-round solve work through the
	// process-wide collector; both nil (free) when the process is
	// unobserved. Resolved once per Reset, never per round.
	obsRounds  *anonobs.Counter
	obsRoundNS *anonobs.Histogram
}

// noPin is pinHi before any eviction: no upper bound on c0.
const noPin = math.MaxInt

// NewIncrementalSolver returns a solver with no observations yet: Reset on
// a new solver.
func NewIncrementalSolver() *IncrementalSolver {
	s := new(IncrementalSolver)
	s.Reset()
	return s
}

// Reset returns s to a solver with no observations, keeping its buffers,
// so a caller that counts many schedules (the S1 campaign's jobs) reuses
// one solver. It fetches the metric handles again, so a solver kept from
// before the process opted into observation (obs.Set) reports like a new
// one.
func (s *IncrementalSolver) Reset() {
	// Round 0 sets total and the sparse layer afresh.
	s.rounds = 0
	s.pinLo, s.pinHi = 0, noPin
	s.obsRounds, s.obsRoundNS = incrementalMetrics()
}

// Rounds returns the number of observations added.
func (s *IncrementalSolver) Rounds() int { return s.rounds }

// AddRoundIndexed incorporates the indexed observation of the next round
// (round index s.Rounds()) and returns the updated interval of consistent
// sizes. It is allocation-free in steady state. Entries must strictly
// ascend by State, one entry per state, as both producers emit them
// (multigraph.ObservationStream and chainnet's merged relay facts); they
// are read in place and never modified. An error — entries out of that
// order, an observed state that no consistent execution populates, or a
// round past multigraph.MaxIndexedRounds (multigraph.ErrIndexCapacity) —
// leaves the solver as it was.
func (s *IncrementalSolver) AddRoundIndexed(entries []multigraph.IndexedObsEntry) (Interval, error) {
	start := s.obsRoundNS.Start()
	defer func() {
		s.obsRounds.Inc()
		s.obsRoundNS.Stop(start)
	}()
	if s.rounds >= multigraph.MaxIndexedRounds {
		return Interval{}, fmt.Errorf("kernel: round %d: %w", s.rounds, multigraph.ErrIndexCapacity)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].State <= entries[i-1].State {
			return Interval{}, fmt.Errorf("kernel: round-%d observation: state %d follows state %d, want strictly ascending states",
				s.rounds, entries[i].State, entries[i-1].State)
		}
	}

	if s.rounds == 0 {
		// Round 0 is the generic step applied to the single virtual parent
		// ⊥ with form total - c0 (evaluating to |W|): its children are the
		// paper's initial forms R1-c0, R2-c0, c0.
		s.total = 0
		if len(entries) > 0 && entries[0].State == 0 {
			s.total = entries[0].Count1 + entries[0].Count2
		}
		s.sparse = append(s.sparse[:0], stateForm{state: 0, f: form{a: s.total, b: -1}})
	}
	if err := s.expand(entries); err != nil {
		return Interval{}, err
	}
	s.sparse, s.sparseNext = s.sparseNext, s.sparse
	s.rounds++
	return s.Interval()
}

// expand walks the sparse layer and the observation together, both in
// ascending state order. An observed state branches into its three children
// in sparseNext; a state the observation skips is evicted, pinning c0; an
// observed state outside the sparse layer is an orphan. The pins change only
// when the whole round succeeds.
func (s *IncrementalSolver) expand(obs []multigraph.IndexedObsEntry) error {
	// Each observed state has three children, so the layer grows at most
	// once a round.
	next := slices.Grow(s.sparseNext[:0], 3*len(obs))
	lo, hi := s.pinLo, s.pinHi
	j := 0
	for _, sf := range s.sparse {
		for ; j < len(obs) && obs[j].State < sf.state; j++ {
			if observed(obs[j]) {
				return s.orphan(obs[j].State)
			}
		}
		if j == len(obs) || obs[j].State != sf.state || !observed(obs[j]) {
			c := sf.f.a
			if sf.f.b > 0 {
				c = -c
			}
			lo, hi = max(lo, c), min(hi, c)
			continue
		}
		c0, c1, c2 := childForms(sf.f, obs[j].Count1, obs[j].Count2)
		j++
		i := 3 * sf.state
		next = append(next, stateForm{i, c0}, stateForm{i + 1, c1}, stateForm{i + 2, c2})
	}
	for ; j < len(obs); j++ {
		if observed(obs[j]) {
			return s.orphan(obs[j].State)
		}
	}
	s.sparseNext = next
	s.pinLo, s.pinHi = lo, hi
	return nil
}

// observed reports whether an observation entry counts any edge.
func observed(e multigraph.IndexedObsEntry) bool { return e.Count1 != 0 || e.Count2 != 0 }

// orphan is the error for an observed state outside the sparse support:
// such a state provably holds zero nodes, so no execution emits it, and
// folding it in silently would corrupt the interval.
func (s *IncrementalSolver) orphan(state int64) error {
	return fmt.Errorf("kernel: round-%d observation names state index %d, which no consistent execution populates", s.rounds, state)
}

// childForms applies the paper's per-state recurrence: a parent with form f
// (count of nodes in that state) and o1/o2 label-1/label-2 edges from its
// nodes splits into children ∘{1}, ∘{2}, ∘{1,2} with counts f-o2, f-o1,
// o1+o2-f.
func childForms(f form, o1, o2 int) (form, form, form) {
	return form{a: f.a - o2, b: f.b},
		form{a: f.a - o1, b: f.b},
		form{a: o1 + o2 - f.a, b: -f.b}
}

// Interval returns the current interval of consistent sizes. Before any
// observation it is unbounded.
func (s *IncrementalSolver) Interval() (Interval, error) {
	if s.rounds == 0 {
		return Interval{MinSize: 0, Unbounded: true}, nil
	}
	lo, hi := s.pinLo, s.pinHi
	for _, sf := range s.sparse {
		if f := sf.f; f.b > 0 {
			if c := -f.a; c > lo {
				lo = c
			}
		} else if f.a < hi {
			hi = f.a
		}
	}
	if hi == noPin {
		return Interval{}, fmt.Errorf("kernel: no upper constraint on c0 (malformed observations)")
	}
	if lo > hi {
		return Interval{Empty: true}, nil
	}
	return Interval{MinSize: s.total - hi, MaxSize: s.total - lo}, nil
}
