package runtime

import (
	"cmp"
	"slices"
	"strconv"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// floodProc is a minimal flooding protocol: it broadcasts whether it holds
// the token and adopts the token upon hearing it.
type floodProc struct {
	has      bool
	heardAt  int
	received [][]Message
}

func (f *floodProc) Send(int) Message { return f.has }

func (f *floodProc) Receive(r int, msgs []Message) {
	// Per the Receive ownership rule, msgs is engine-owned and reused next
	// round; retaining it across rounds requires a copy.
	f.received = append(f.received, append([]Message(nil), msgs...))
	if f.has {
		return
	}
	for _, m := range msgs {
		if b, ok := m.(bool); ok && b {
			f.has = true
			f.heardAt = r
			return
		}
	}
}

func newFloodProcs(n, src int) []Process {
	procs := make([]Process, n)
	for i := range procs {
		fp := &floodProc{heardAt: -1}
		if i == src {
			fp.has = true
			fp.heardAt = -2
		}
		procs[i] = fp
	}
	return procs
}

func TestRunSequentialFloodOnPath(t *testing.T) {
	n := 5
	procs := newFloodProcs(n, 0)
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(n)),
		Procs:     procs,
		MaxRounds: 10,
	}
	rounds, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 10 {
		t.Fatalf("rounds = %d, want 10 (no stop condition)", rounds)
	}
	// Node at distance k hears the token at round k-1.
	for v := 1; v < n; v++ {
		fp := procs[v].(*floodProc)
		if fp.heardAt != v-1 {
			t.Fatalf("node %d heard at round %d, want %d", v, fp.heardAt, v-1)
		}
	}
}

func TestRunSequentialStopCondition(t *testing.T) {
	procs := newFloodProcs(3, 0)
	all := func(int) bool {
		for _, p := range procs {
			if !p.(*floodProc).has {
				return false
			}
		}
		return true
	}
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(3)),
		Procs:     procs,
		MaxRounds: 100,
		Stop:      all,
	}
	rounds, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Fatalf("rounds = %d, want 2", rounds)
	}
}

func TestValidateErrors(t *testing.T) {
	good := &Config{
		Net:       dynet.NewStatic(graph.Path(2)),
		Procs:     newFloodProcs(2, 0),
		MaxRounds: 1,
	}
	cases := []struct {
		name   string
		mutate func(c *Config)
	}{
		{"nil net", func(c *Config) { c.Net = nil }},
		{"wrong proc count", func(c *Config) { c.Procs = c.Procs[:1] }},
		{"nil proc", func(c *Config) { c.Procs[1] = nil }},
		{"negative rounds", func(c *Config) { c.MaxRounds = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := *good
			c.Procs = append([]Process(nil), good.Procs...)
			tc.mutate(&c)
			if _, err := RunSequential(&c); err == nil {
				t.Fatal("sequential: want error")
			}
			if _, err := RunSharded(&c); err == nil {
				t.Fatal("sharded: want error")
			}
		})
	}
}

// An empty network and a zero-round budget both end the run before its
// first round on either engine: no rounds completed, no hook called.
func TestZeroRoundsAndZeroNodes(t *testing.T) {
	for name, engine := range map[string]Engine{
		"sequential": RunSequential,
		"sharded":    RunSharded,
	} {
		hooks := 0
		empty := &Config{
			Net:       dynet.NewStatic(graph.New(0)),
			Procs:     nil,
			MaxRounds: 5,
			OnRound:   func(int) { hooks++ },
		}
		if r, err := engine(empty); err != nil || r != 0 {
			t.Fatalf("%s: empty network: (%d, %v)", name, r, err)
		}
		zero := &Config{
			Net:       dynet.NewStatic(graph.Path(2)),
			Procs:     newFloodProcs(2, 0),
			MaxRounds: 0,
			OnRound:   func(int) { hooks++ },
		}
		if r, err := engine(zero); err != nil || r != 0 {
			t.Fatalf("%s: zero rounds: (%d, %v)", name, r, err)
		}
		if hooks != 0 {
			t.Fatalf("%s: OnRound called %d times, want 0", name, hooks)
		}
	}
}

// degreeProc records the degree it was told before each send phase.
type degreeProc struct {
	degrees []int
}

func (d *degreeProc) Send(int) Message        { return nil }
func (d *degreeProc) Receive(int, []Message)  {}
func (d *degreeProc) SetDegree(_, degree int) { d.degrees = append(d.degrees, degree) }

func TestDegreeOracleDelivery(t *testing.T) {
	// Star centered at 0: center degree 3, leaves degree 1.
	star, err := graph.Star(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, engine := range map[string]func(*Config) (int, error){
		"sequential": RunSequential,
		"sharded":    RunSharded,
	} {
		t.Run(name, func(t *testing.T) {
			procs := make([]Process, 4)
			for i := range procs {
				procs[i] = &degreeProc{}
			}
			cfg := &Config{Net: dynet.NewStatic(star), Procs: procs, MaxRounds: 3}
			if _, err := engine(cfg); err != nil {
				t.Fatal(err)
			}
			center := procs[0].(*degreeProc)
			if len(center.degrees) != 3 || center.degrees[0] != 3 {
				t.Fatalf("center degrees = %v", center.degrees)
			}
			leaf := procs[1].(*degreeProc)
			if leaf.degrees[0] != 1 {
				t.Fatalf("leaf degrees = %v", leaf.degrees)
			}
		})
	}
}

// outputProc terminates with a fixed value after a given round.
type outputProc struct {
	after int
	round int
}

func (o *outputProc) Send(int) Message           { return nil }
func (o *outputProc) Receive(r int, _ []Message) { o.round = r }
func (o *outputProc) Output() (int, bool)        { return 42, o.round >= o.after }

func TestRunUntilOutput(t *testing.T) {
	procs := []Process{&outputProc{after: 3}, &floodProc{}}
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(2)),
		Procs:     procs,
		MaxRounds: 10,
	}
	val, rounds, ok, err := RunUntilOutput(cfg, 0, RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || val != 42 || rounds != 4 {
		t.Fatalf("got (val=%d rounds=%d ok=%v)", val, rounds, ok)
	}
}

func TestRunUntilOutputErrors(t *testing.T) {
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(2)),
		Procs:     newFloodProcs(2, 0),
		MaxRounds: 5,
	}
	if _, _, _, err := RunUntilOutput(cfg, 7, RunSequential); err == nil {
		t.Fatal("bad leader index should error")
	}
	if _, _, _, err := RunUntilOutput(cfg, 0, RunSequential); err == nil {
		t.Fatal("non-Outputter leader should error")
	}
}

func TestRunUntilOutputNeverTerminates(t *testing.T) {
	procs := []Process{&outputProc{after: 100}, &floodProc{}}
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(2)),
		Procs:     procs,
		MaxRounds: 5,
	}
	_, rounds, ok, err := RunUntilOutput(cfg, 0, RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if ok || rounds != 5 {
		t.Fatalf("got (rounds=%d ok=%v), want (5, false)", rounds, ok)
	}
}

// echoProc broadcasts its node index and records what it hears; used to
// verify anonymity-preserving canonical delivery order.
type echoProc struct {
	id    int
	heard []string
}

func (e *echoProc) Send(int) Message { return strconv.Itoa(e.id) }

func (e *echoProc) Receive(_ int, msgs []Message) {
	for _, m := range msgs {
		e.heard = append(e.heard, m.(string))
	}
}

// digitKey keys a one-digit string message by the digit, reversed: it
// delivers "3" before "2" before "1", which no text order does.
func digitKey(m Message) uint64 { return uint64('9' - m.(string)[0]) }

func TestCanonicalDeliveryOrder(t *testing.T) {
	// Node 0 is adjacent to 3, 1, 2 (inserted in scrambled order) and node
	// 1 to 0 and 2, so node 0 hears three messages and node 1 two; each
	// inbox must arrive in ascending key order, independent of adjacency
	// iteration order. Without a CanonKey the key is StringKey of the
	// Canon text.
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 3}, {U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}})
	byText := func(msgs ...string) []string {
		slices.SortFunc(msgs, func(a, b string) int { return cmp.Compare(StringKey(a), StringKey(b)) })
		return msgs
	}
	for _, tc := range []struct {
		name string
		key  KeyCanonicalizer
		want [][]string // inboxes of nodes 0 and 1
	}{
		{"CanonKey", digitKey, [][]string{{"3", "2", "1"}, {"2", "0"}}},
		{"StringKey(Canon)", nil, [][]string{byText("1", "2", "3"), byText("0", "2")}},
	} {
		procs := []Process{
			&echoProc{id: 0}, &echoProc{id: 1}, &echoProc{id: 2}, &echoProc{id: 3},
		}
		cfg := &Config{
			Net:       dynet.NewStatic(g),
			Procs:     procs,
			MaxRounds: 1,
			Canon:     func(m Message) string { return m.(string) },
			CanonKey:  tc.key,
		}
		if _, err := RunSequential(cfg); err != nil {
			t.Fatal(err)
		}
		for v, want := range tc.want {
			if got := procs[v].(*echoProc).heard; !slices.Equal(got, want) {
				t.Fatalf("%s: node %d heard %v, want %v", tc.name, v, got, want)
			}
		}
	}
}

func TestOnRoundHook(t *testing.T) {
	var seen []int
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(2)),
		Procs:     newFloodProcs(2, 0),
		MaxRounds: 3,
		OnRound:   func(r int) { seen = append(seen, r) },
	}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Fatalf("OnRound saw %v", seen)
	}
}

func TestConcurrentManyNodesRace(t *testing.T) {
	// Exercised under -race in CI: 50 processes over a churning network,
	// each on its own sharded-engine worker goroutine.
	net, err := dynet.NewTInterval(50, 1, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	procs := newFloodProcs(50, 0)
	cfg := &Config{Net: net, Procs: procs, MaxRounds: 8, Shards: 50}
	if _, err := RunSharded(cfg); err != nil {
		t.Fatal(err)
	}
	for v, p := range procs {
		if !p.(*floodProc).has {
			t.Fatalf("node %d never heard the flood", v)
		}
	}
}

// Inboxes are multisets: two neighbors broadcasting equal messages deliver
// two entries, and an isolated node receives an empty (non-nil-safe) inbox.
func TestInboxMultisetSemantics(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}})
	procs := []Process{
		&echoProc{id: 7}, &echoProc{id: 9}, &echoProc{id: 9}, &echoProc{id: 5},
	}
	cfg := &Config{
		Net:       dynet.NewStatic(g),
		Procs:     procs,
		MaxRounds: 1,
		Canon:     func(m Message) string { return m.(string) },
	}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	heard := procs[0].(*echoProc).heard
	if len(heard) != 2 || heard[0] != "9" || heard[1] != "9" {
		t.Fatalf("duplicate messages collapsed: %v", heard)
	}
	if got := procs[3].(*echoProc).heard; len(got) != 0 {
		t.Fatalf("isolated node heard %v", got)
	}
}

// The engines agree on the degree-oracle path as well.
func TestEnginesAgreeWithDegreeOracle(t *testing.T) {
	run := func(engine func(*Config) (int, error)) []int {
		procs := make([]Process, 5)
		for i := range procs {
			procs[i] = &degreeProc{}
		}
		net, err := dynet.NewTInterval(5, 1, 0.4, 11)
		if err != nil {
			t.Fatal(err)
		}
		cfg := &Config{Net: net, Procs: procs, MaxRounds: 4}
		if _, err := engine(cfg); err != nil {
			t.Fatal(err)
		}
		var all []int
		for _, p := range procs {
			all = append(all, p.(*degreeProc).degrees...)
		}
		return all
	}
	a := run(RunSequential)
	b := run(RunSharded)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("degree streams differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
