// Package trace records synchronous executions — per-round topologies,
// broadcasts, and inboxes — so that runs can be exported, compared, and
// replayed. Its central use in this reproduction is indistinguishability
// checking: two executions are indistinguishable to a node iff the node's
// transcripts (its per-round received multisets) are identical, which is
// Lemma 5's criterion applied at the message-passing level.
package trace

import (
	"encoding/json"
	"fmt"
	"slices"

	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// Round is the record of one completed round.
type Round struct {
	// Edges is the topology used in the round, in canonical order.
	Edges []graph.Edge `json:"edges"`
	// Sent[i] is the canonical encoding of node i's broadcast.
	Sent []string `json:"sent"`
	// Inbox[i] lists the canonical encodings node i received, sorted: a
	// process hears the multiset of its neighbors' messages, so the
	// record does not depend on the engine's delivery order.
	Inbox [][]string `json:"inbox"`
}

// Trace is a full execution record.
type Trace struct {
	// N is the node count.
	N int `json:"n"`
	// Rounds holds one record per completed round.
	Rounds []Round `json:"rounds"`
}

// Recorder instruments a runtime.Config to capture a Trace. Create it with
// NewRecorder, then run the returned config.
type Recorder struct {
	trace Trace
	canon runtime.Canonicalizer
	cur   *Round
}

// recProc decorates a process with send/receive capture.
type recProc struct {
	inner runtime.Process
	rec   *Recorder
	node  int
}

func (p *recProc) Send(r int) runtime.Message {
	m := p.inner.Send(r)
	p.rec.cur.Sent[p.node] = p.rec.canon(m)
	return m
}

func (p *recProc) Receive(r int, msgs []runtime.Message) {
	enc := make([]string, len(msgs))
	for i, m := range msgs {
		enc[i] = p.rec.canon(m)
	}
	slices.Sort(enc)
	p.rec.cur.Inbox[p.node] = enc
	p.inner.Receive(r, msgs)
}

// wrap decorates p for recording. The decorator implements
// runtime.DegreeAware and runtime.Outputter exactly when p does, so the
// engine treats the recorded run as it treats the plain one: a degree
// oracle nobody asked for would, for one, make an adaptive run invalid.
func (rec *Recorder) wrap(p runtime.Process, node int) runtime.Process {
	rp := &recProc{inner: p, rec: rec, node: node}
	da, isDA := p.(runtime.DegreeAware)
	out, isOut := p.(runtime.Outputter)
	switch {
	case isDA && isOut:
		return struct {
			*recProc
			runtime.DegreeAware
			runtime.Outputter
		}{rp, da, out}
	case isDA:
		return struct {
			*recProc
			runtime.DegreeAware
		}{rp, da}
	case isOut:
		return struct {
			*recProc
			runtime.Outputter
		}{rp, out}
	}
	return rp
}

// NewRecorder wraps cfg so that running it captures a full Trace. The
// returned config must be run with the SEQUENTIAL engine: recording hooks
// write shared state from process callbacks, which the sharded engine
// runs in parallel. The original cfg is not modified.
func NewRecorder(cfg *runtime.Config) (*Recorder, *runtime.Config, error) {
	if cfg.Net == nil {
		return nil, nil, fmt.Errorf("trace: nil network")
	}
	n := cfg.Net.N()
	if len(cfg.Procs) != n {
		return nil, nil, fmt.Errorf("trace: %d processes for %d nodes", len(cfg.Procs), n)
	}
	rec := &Recorder{trace: Trace{N: n}}
	rec.canon = cfg.Canon
	if rec.canon == nil {
		rec.canon = runtime.DefaultCanon
	}
	wrapped := *cfg
	wrapped.Procs = make([]runtime.Process, n)
	for i, p := range cfg.Procs {
		wrapped.Procs[i] = rec.wrap(p, i)
	}
	// The topology of a round is the graph the engine ran it on: the
	// network's snapshot, or what the adaptive adversary chose.
	topology := cfg.Net.Snapshot
	if adaptive := cfg.Adaptive; adaptive != nil {
		var chosen *graph.Graph
		wrapped.Adaptive = func(r int, outbox []runtime.Message) *graph.Graph {
			chosen = adaptive(r, outbox)
			return chosen
		}
		topology = func(int) *graph.Graph { return chosen }
	}
	userOnRound := cfg.OnRound
	rec.startRound(cfg.Net, 0)
	wrapped.OnRound = func(r int) {
		rec.cur.Edges = topology(r).Edges()
		rec.trace.Rounds = append(rec.trace.Rounds, *rec.cur)
		rec.startRound(cfg.Net, r+1)
		if userOnRound != nil {
			userOnRound(r)
		}
	}
	return rec, &wrapped, nil
}

func (rec *Recorder) startRound(net interface{ N() int }, r int) {
	n := net.N()
	rec.cur = &Round{
		Sent:  make([]string, n),
		Inbox: make([][]string, n),
	}
}

// Trace returns the recorded execution so far.
func (rec *Recorder) Trace() *Trace {
	t := rec.trace
	return &t
}

// Transcript returns node v's view of the execution: the sequence of its
// per-round inboxes, canonically encoded. Anonymous algorithms see exactly
// this (plus their own sends), so equal transcripts mean indistinguishable
// executions for that node.
func (t *Trace) Transcript(v int) ([]string, error) {
	if v < 0 || v >= t.N {
		return nil, fmt.Errorf("trace: node %d out of range [0,%d)", v, t.N)
	}
	out := make([]string, len(t.Rounds))
	for r, round := range t.Rounds {
		b, err := json.Marshal(round.Inbox[v])
		if err != nil {
			return nil, err
		}
		out[r] = string(b)
	}
	return out, nil
}

// TranscriptsEqual reports whether node v's transcript is identical in two
// traces through the first `rounds` rounds of each.
func TranscriptsEqual(a, b *Trace, v, rounds int) (bool, error) {
	ta, err := a.Transcript(v)
	if err != nil {
		return false, err
	}
	tb, err := b.Transcript(v)
	if err != nil {
		return false, err
	}
	if len(ta) < rounds || len(tb) < rounds {
		return false, fmt.Errorf("trace: traces cover %d and %d rounds, need %d", len(ta), len(tb), rounds)
	}
	for r := 0; r < rounds; r++ {
		if ta[r] != tb[r] {
			return false, nil
		}
	}
	return true, nil
}

// MarshalJSON is provided by the embedded struct tags; ToJSON is a
// convenience wrapper producing indented output.
func (t *Trace) ToJSON() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// FromJSON parses a trace previously produced by ToJSON.
func FromJSON(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("trace: parse: %w", err)
	}
	return &t, nil
}
