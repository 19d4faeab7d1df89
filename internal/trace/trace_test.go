package trace

import (
	"slices"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// beacon broadcasts a fixed string; sink records nothing.
type beacon struct{ id string }

func (b beacon) Send(int) runtime.Message     { return b.id }
func (beacon) Receive(int, []runtime.Message) {}

func mkConfig(n int, net dynet.Dynamic, rounds int) *runtime.Config {
	procs := make([]runtime.Process, n)
	for i := range procs {
		procs[i] = beacon{id: string(rune('a' + i))}
	}
	return &runtime.Config{
		Net:       net,
		Procs:     procs,
		MaxRounds: rounds,
		Canon: func(m runtime.Message) string {
			if s, ok := m.(string); ok {
				return s
			}
			return runtime.DefaultCanon(m)
		},
	}
}

func TestRecorderCapturesRounds(t *testing.T) {
	net := dynet.NewStatic(graph.Path(3))
	cfg := mkConfig(3, net, 2)
	rec, wrapped, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.RunSequential(wrapped); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if tr.N != 3 || len(tr.Rounds) != 2 {
		t.Fatalf("trace: N=%d rounds=%d", tr.N, len(tr.Rounds))
	}
	r0 := tr.Rounds[0]
	if len(r0.Edges) != 2 {
		t.Fatalf("round 0 edges = %v", r0.Edges)
	}
	if r0.Sent[0] != "a" || r0.Sent[1] != "b" || r0.Sent[2] != "c" {
		t.Fatalf("sent = %v", r0.Sent)
	}
	// Node 1 on the path hears both ends.
	if len(r0.Inbox[1]) != 2 {
		t.Fatalf("inbox[1] = %v", r0.Inbox[1])
	}
	if len(r0.Inbox[0]) != 1 || r0.Inbox[0][0] != "b" {
		t.Fatalf("inbox[0] = %v", r0.Inbox[0])
	}
}

func TestRecorderValidation(t *testing.T) {
	if _, _, err := NewRecorder(&runtime.Config{}); err == nil {
		t.Fatal("nil network should error")
	}
	if _, _, err := NewRecorder(&runtime.Config{Net: dynet.NewStatic(graph.Path(2))}); err == nil {
		t.Fatal("missing processes should error")
	}
}

func TestRecorderPreservesUserOnRound(t *testing.T) {
	var seen []int
	cfg := mkConfig(2, dynet.NewStatic(graph.Path(2)), 3)
	cfg.OnRound = func(r int) { seen = append(seen, r) }
	_, wrapped, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.RunSequential(wrapped); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("user OnRound saw %v", seen)
	}
}

// TestRecorderSortsInboxes records a run whose key delivers each inbox in
// reverse text order: the record lists the inbox sorted all the same, so
// it does not depend on the engine's delivery order.
func TestRecorderSortsInboxes(t *testing.T) {
	cfg := mkConfig(3, dynet.NewStatic(graph.Complete(3)), 1)
	cfg.CanonKey = func(m runtime.Message) uint64 { return uint64('z' - m.(string)[0]) }
	var heard []runtime.Message
	cfg.Procs[1] = inboxSpy{beacon{id: "b"}, &heard}
	rec, wrapped, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.RunSequential(wrapped); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(heard, []runtime.Message{"c", "a"}) {
		t.Fatalf("delivered %v, want [c a]", heard)
	}
	if got := rec.Trace().Rounds[0].Inbox[1]; !slices.Equal(got, []string{"a", "c"}) {
		t.Fatalf("recorded inbox %v, want [a c]", got)
	}
}

// inboxSpy is a beacon that keeps the inbox it was handed last.
type inboxSpy struct {
	beacon
	heard *[]runtime.Message
}

func (s inboxSpy) Receive(_ int, msgs []runtime.Message) { *s.heard = slices.Clone(msgs) }

// degreeOutput is a beacon with a degree oracle and an output.
type degreeOutput struct{ beacon }

func (degreeOutput) SetDegree(int, int)  {}
func (degreeOutput) Output() (int, bool) { return 0, false }

// TestRecorderKeepsOptionalInterfaces checks that a recorded process
// offers the degree oracle and an output exactly when its process does.
func TestRecorderKeepsOptionalInterfaces(t *testing.T) {
	cfg := mkConfig(2, dynet.NewStatic(graph.Path(2)), 1)
	cfg.Procs[1] = degreeOutput{beacon{id: "b"}}
	_, wrapped, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range []bool{false, true} {
		_, isDA := wrapped.Procs[v].(runtime.DegreeAware)
		_, isOut := wrapped.Procs[v].(runtime.Outputter)
		if isDA != want || isOut != want {
			t.Errorf("node %d: DegreeAware %v, Outputter %v; want both %v", v, isDA, isOut, want)
		}
	}
}

// TestRecorderRecordsAdaptiveRun records a run under an adaptive adversary
// that puts node 0 in the middle of what the network serves as the path
// 0-1-2: the recorded run must be valid, and each round must record the
// adversary's edges and the inboxes they delivered.
func TestRecorderRecordsAdaptiveRun(t *testing.T) {
	cfg := mkConfig(3, dynet.NewStatic(graph.Path(3)), 2)
	star := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}})
	cfg.Adaptive = func(int, []runtime.Message) *graph.Graph { return star }
	rec, wrapped, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.RunSequential(wrapped); err != nil {
		t.Fatal(err)
	}
	for r, round := range rec.Trace().Rounds {
		if !slices.Equal(round.Edges, star.Edges()) {
			t.Fatalf("round %d recorded edges %v, want the adversary's %v", r, round.Edges, star.Edges())
		}
		if !slices.Equal(round.Inbox[0], []string{"b", "c"}) {
			t.Fatalf("round %d: node 0 heard %v, want [b c]", r, round.Inbox[0])
		}
	}
}

func TestTranscriptAndEquality(t *testing.T) {
	net := dynet.NewStatic(graph.Path(3))
	runOnce := func() *Trace {
		cfg := mkConfig(3, net, 3)
		rec, wrapped, err := NewRecorder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runtime.RunSequential(wrapped); err != nil {
			t.Fatal(err)
		}
		return rec.Trace()
	}
	a := runOnce()
	b := runOnce()
	eq, err := TranscriptsEqual(a, b, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("identical executions have different transcripts")
	}
	if _, err := a.Transcript(9); err == nil {
		t.Fatal("bad node should error")
	}
	if _, err := TranscriptsEqual(a, b, 0, 9); err == nil {
		t.Fatal("too many rounds should error")
	}
}

func TestTranscriptsDifferAcrossTopologies(t *testing.T) {
	mk := func(net dynet.Dynamic) *Trace {
		cfg := mkConfig(3, net, 2)
		rec, wrapped, err := NewRecorder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runtime.RunSequential(wrapped); err != nil {
			t.Fatal(err)
		}
		return rec.Trace()
	}
	a := mk(dynet.NewStatic(graph.Path(3)))
	b := mk(dynet.NewStatic(graph.Complete(3)))
	eq, err := TranscriptsEqual(a, b, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("different topologies produced equal node-0 transcripts")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cfg := mkConfig(2, dynet.NewStatic(graph.Path(2)), 2)
	rec, wrapped, err := NewRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.RunSequential(wrapped); err != nil {
		t.Fatal(err)
	}
	data, err := rec.Trace().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != 2 || len(back.Rounds) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if _, err := FromJSON([]byte("{")); err == nil {
		t.Fatal("malformed JSON should error")
	}
}

// fullInfoProc broadcasts its complete receive history — the canonical
// "full information" protocol used for indistinguishability experiments.
type fullInfoProc struct {
	history []string
}

func (p *fullInfoProc) Send(int) runtime.Message {
	out := make([]string, len(p.history))
	copy(out, p.history)
	return out
}

func (p *fullInfoProc) Receive(_ int, msgs []runtime.Message) {
	enc := ""
	for _, m := range msgs {
		if ss, ok := m.([]string); ok {
			inner := ""
			for _, s := range ss {
				inner += "(" + s + ")"
			}
			enc += "[" + inner + "]"
		}
	}
	p.history = append(p.history, enc)
}

// TestLemma5AtMessageLevel is the package's flagship test: running the
// full-information protocol over the PD2 transformations of a Lemma 5 pair
// yields IDENTICAL leader transcripts through the indistinguishability
// horizon — message-level confirmation of the view-level result.
func TestLemma5AtMessageLevel(t *testing.T) {
	pair, err := core.WorstCasePair(4)
	if err != nil {
		t.Fatal(err)
	}
	mkTrace := func(side int) *Trace {
		m := pair.M
		if side == 1 {
			m = pair.MPrime
		}
		net, _, err := m.ToPD2()
		if err != nil {
			t.Fatal(err)
		}
		n := net.N()
		procs := make([]runtime.Process, n)
		for i := range procs {
			procs[i] = &fullInfoProc{}
		}
		cfg := &runtime.Config{
			Net:       net,
			Procs:     procs,
			MaxRounds: pair.Rounds,
			Canon: func(m runtime.Message) string {
				ss, ok := m.([]string)
				if !ok {
					return runtime.DefaultCanon(m)
				}
				out := ""
				for _, s := range ss {
					out += "<" + s + ">"
				}
				return out
			},
		}
		rec, wrapped, err := NewRecorder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runtime.RunSequential(wrapped); err != nil {
			t.Fatal(err)
		}
		return rec.Trace()
	}
	ta := mkTrace(0)
	tb := mkTrace(1)
	// The leader is node 0 in the PD2 layout.
	eq, err := TranscriptsEqual(ta, tb, 0, pair.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("Lemma 5 pair produced different leader transcripts at the message level")
	}
}
