package multigraph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// MaxIndexedRounds bounds the rounds an ObservationStream can serve: sender
// states are tracked by History.Index over base 3 (k = 2), which is exact in
// int64 only through length 39 (3^39 < 2^63 <= 3^40), so the stream serves
// rounds 0..MaxIndexedRounds-1 and then returns ErrIndexCapacity.
// kernel.IncrementalSolver, which keys states the same way, takes as many
// rounds. A leader needs a later round only while its count is still
// ambiguous, which takes about 2·10^18 nodes.
const MaxIndexedRounds = 39

// ErrIndexCapacity is returned by ObservationStream.Next, and by
// kernel.IncrementalSolver.AddRoundIndexed, once node-state indices would
// no longer fit in int64.
var ErrIndexCapacity = errors.New("multigraph: observation stream exhausted int64 state-index capacity")

// IndexedObsEntry is one (sender state, per-label counts) class of a leader
// observation for k = 2: State is History.Index(2) of the sender state,
// Count1/Count2 the number of senders whose label set that round contains
// label 1/label 2 (a node with {1,2} counts in both). Entries carry the
// same information as the Observation map without any string keys.
type IndexedObsEntry struct {
	State  int64
	Count1 int
	Count2 int
}

// ObservationStream produces the leader's per-round observations in indexed
// form, reusing its buffers across rounds. It is the allocation-light
// counterpart of calling LeaderObservation(r) for r = 0, 1, 2, ...: instead
// of building every node's history key each round, it keeps W's node ids
// grouped by current state, with the groups in ascending state order, and
// refines each group by the round's label sets, the way history-tree
// classes refine. No state is hashed and nothing is sorted.
//
// Buffer ownership: the slice returned by Next is owned by the stream and
// is valid only until the next Next or Reset call — callers that retain
// entries across rounds must copy them. A stream is not safe for
// concurrent use. A zero ObservationStream must be Reset before Next.
type ObservationStream struct {
	m *Multigraph
	r int

	// nodes holds W's node ids, each state's nodes contiguous. groups
	// lists the states in ascending order, each with the end of its run
	// in nodes (a run starts where the previous one ends); groupsNext is
	// its double buffer, swapped each round.
	nodes              []int32
	groups, groupsNext []stateGroup
	entries            []IndexedObsEntry
}

// stateGroup is one state's run of nodes in ObservationStream.nodes: the
// state's History.Index(2) and the end of its run.
type stateGroup struct {
	state int64
	end   int
}

// NewObservationStream returns a stream positioned before round 0: Reset
// on a new stream.
func (m *Multigraph) NewObservationStream() (*ObservationStream, error) {
	s := new(ObservationStream)
	if err := s.Reset(m); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset positions s before round 0 of m, keeping its buffers, so a caller
// that streams many multigraphs (the S1 campaign's jobs) allocates only
// when one needs more room than any before it. Nothing of the previous
// multigraph's stream survives. Indexed observations are defined for the
// k = 2 instantiation the solver machinery targets; other alphabets get an
// error, and so does a W of more than 2^31−1 nodes, whose ids the stream
// keeps as int32; on an error s is left as it was.
func (s *ObservationStream) Reset(m *Multigraph) error {
	if m.k != 2 {
		return fmt.Errorf("multigraph: observation stream requires k=2, got k=%d", m.k)
	}
	if m.w > math.MaxInt32 {
		return fmt.Errorf("multigraph: observation stream takes at most %d nodes, got %d", math.MaxInt32, m.w)
	}
	s.m, s.r = m, 0
	s.nodes = slices.Grow(s.nodes[:0], m.w)[:m.w]
	for v := range s.nodes {
		s.nodes[v] = int32(v)
	}
	s.groups = s.groups[:0]
	if m.w > 0 {
		// Round 0: every node is in the empty history, index 0.
		s.groups = append(s.groups, stateGroup{state: 0, end: m.w})
	}
	return nil
}

// Next returns the indexed observation of the next round and advances the
// stream. The returned slice aliases stream-owned scratch (see the type
// comment). Entries strictly ascend by State, so
// kernel.IncrementalSolver.AddRoundIndexed reads them in place.
//
// Each group is partitioned in place three ways by the round's label sets,
// {1}, {2} and {1,2}; it yields its entry, and its non-empty parts become
// the groups of children 3s, 3s+1 and 3s+2 (History.Index extended by the
// symbol index LabelSet-1, labelset.go's canonical order). Children of
// ascending parents ascend, so the next round's groups need no sort.
func (s *ObservationStream) Next() ([]IndexedObsEntry, error) {
	if s.r >= s.m.horizon {
		return nil, fmt.Errorf("multigraph: round %d out of range [0,%d)", s.r, s.m.horizon)
	}
	if s.r+1 > MaxIndexedRounds {
		return nil, ErrIndexCapacity
	}
	cells, h, r := s.m.cells, s.m.horizon, s.r
	// A round has one entry per group, and each group splits into at
	// most three, so the buffers grow at most once a round.
	s.entries = slices.Grow(s.entries[:0], len(s.groups))
	next := slices.Grow(s.groupsNext[:0], min(3*len(s.groups), s.m.w))
	start := 0
	for _, g := range s.groups {
		run := s.nodes[start:g.end]
		lo, hi := partition3(run, cells[r:], h)
		both := len(run) - hi
		s.entries = append(s.entries, IndexedObsEntry{State: g.state, Count1: lo + both, Count2: hi - lo + both})
		child := 3 * g.state
		if lo > 0 {
			next = append(next, stateGroup{child, start + lo})
		}
		if hi > lo {
			next = append(next, stateGroup{child + 1, start + hi})
		}
		if both > 0 {
			next = append(next, stateGroup{child + 2, g.end})
		}
		start = g.end
	}
	s.groups, s.groupsNext = next, s.groups
	s.r++
	return s.entries, nil
}

// partition3 reorders run in place by node v's label set labels[v·h], the
// schedule from the round's own cells on: the {1} nodes to run[:lo], the
// {2} nodes to run[lo:hi] and the {1,2} nodes to run[hi:]. It makes two
// branch-free Lomuto passes, {1} to the front and then {2} before {1,2}:
// on random schedules a branch per node would often mispredict.
func partition3(run []int32, labels []LabelSet, h int) (lo, hi int) {
	for i, v := range run {
		one := 0
		if labels[int(v)*h] == 1 {
			one = 1
		}
		run[i], run[lo] = run[lo], v
		lo += one
	}
	hi = lo
	for i := lo; i < len(run); i++ {
		v := run[i]
		two := 0
		if labels[int(v)*h] == 2 {
			two = 1
		}
		run[i], run[hi] = run[hi], v
		hi += two
	}
	return lo, hi
}
