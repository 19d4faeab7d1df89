package multigraph

import (
	"errors"
	"fmt"
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
// of rebuilding every node's history key each round, the stream maintains
// one running state index per node and extends it in O(1).
//
// Buffer ownership: the slice returned by Next is owned by the stream and
// is valid only until the next Next call — callers that retain entries
// across rounds must copy them. A stream is not safe for concurrent use.
type ObservationStream struct {
	m       *Multigraph
	r       int
	idx     []int64       // per-node History.Index of its current state
	pos     map[int64]int // state index -> position in entries (this round)
	entries []IndexedObsEntry
}

// NewObservationStream returns a stream positioned before round 0.
// Indexed observations are defined for the k = 2 instantiation the solver
// machinery targets; other alphabets get an error.
func (m *Multigraph) NewObservationStream() (*ObservationStream, error) {
	if m.k != 2 {
		return nil, fmt.Errorf("multigraph: observation stream requires k=2, got k=%d", m.k)
	}
	return &ObservationStream{
		m:   m,
		idx: make([]int64, len(m.labels)),
		pos: make(map[int64]int),
	}, nil
}

// Next returns the indexed observation of the next round and advances the
// stream. The returned slice aliases stream-owned scratch (see the type
// comment). Entries appear in first-seen node order, so the output is
// deterministic for a fixed multigraph.
func (s *ObservationStream) Next() ([]IndexedObsEntry, error) {
	if s.r >= s.m.horizon {
		return nil, fmt.Errorf("multigraph: round %d out of range [0,%d)", s.r, s.m.horizon)
	}
	if s.r+1 > MaxIndexedRounds {
		return nil, ErrIndexCapacity
	}
	s.entries = s.entries[:0]
	clear(s.pos)
	for v, st := range s.idx {
		ls := s.m.labels[v][s.r]
		p, ok := s.pos[st]
		if !ok {
			p = len(s.entries)
			s.entries = append(s.entries, IndexedObsEntry{State: st})
			s.pos[st] = p
		}
		e := &s.entries[p]
		if ls&1 != 0 {
			e.Count1++
		}
		if ls&2 != 0 {
			e.Count2++
		}
		// Extend the node's history: index over base 3 with symbol index
		// LabelSet-1 (labelset.go's canonical order).
		s.idx[v] = 3*st + int64(ls) - 1
	}
	s.r++
	return s.entries, nil
}
