package runtime

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/multigraph"
	"anondyn/internal/obs"
)

// shardCounts are the worker-pool sizes the equivalence tests sweep:
// degenerate single shard, uneven partitions, and more shards than nodes.
var shardCounts = []int{1, 2, 3, 5, 64}

func mustStar(n int) *graph.Graph {
	g, err := graph.Star(n, 0)
	if err != nil {
		panic(err)
	}
	return g
}

func mustCycle(n int) *graph.Graph {
	g, err := graph.Cycle(n)
	if err != nil {
		panic(err)
	}
	return g
}

// transcriptProc records its full per-round inbox history with distinct
// per-node initial messages, so any deviation in delivery order, content,
// or round count between engines is observable.
type transcriptProc struct {
	id       int
	state    string
	received [][]Message
}

func (p *transcriptProc) Send(int) Message { return p.state }

func (p *transcriptProc) Receive(r int, msgs []Message) {
	p.received = append(p.received, append([]Message(nil), msgs...))
	// Order-sensitive fold: concatenation distinguishes permutations.
	next := p.state
	for _, m := range msgs {
		next += "|" + m.(string)
	}
	if len(next) > 64 {
		next = next[len(next)-64:]
	}
	p.state = next
}

func newTranscriptProcs(n int) []Process {
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &transcriptProc{id: i, state: strconv.Itoa(i)}
	}
	return procs
}

func sameTranscripts(t *testing.T, label string, a, b []Process) {
	t.Helper()
	for v := range a {
		pa, pb := a[v].(*transcriptProc), b[v].(*transcriptProc)
		if pa.state != pb.state {
			t.Fatalf("%s: node %d final state %q vs %q", label, v, pa.state, pb.state)
		}
		if len(pa.received) != len(pb.received) {
			t.Fatalf("%s: node %d saw %d rounds vs %d", label, v, len(pa.received), len(pb.received))
		}
		for r := range pa.received {
			if len(pa.received[r]) != len(pb.received[r]) {
				t.Fatalf("%s: node %d round %d inbox sizes %d vs %d",
					label, v, r, len(pa.received[r]), len(pb.received[r]))
			}
			for i := range pa.received[r] {
				if pa.received[r][i] != pb.received[r][i] {
					t.Fatalf("%s: node %d round %d msg %d: %v vs %v",
						label, v, r, i, pa.received[r][i], pb.received[r][i])
				}
			}
		}
	}
}

func TestRunShardedMatchesSequential(t *testing.T) {
	nets := map[string]dynet.Dynamic{}
	churn, err := dynet.NewTInterval(11, 1, 0.3, 41)
	if err != nil {
		t.Fatal(err)
	}
	nets["churn-n11"] = churn
	star := mustStar(9)
	nets["star-n9"] = dynet.NewStatic(star)
	cyc, err := dynet.NewCyclic([]*graph.Graph{graph.Path(7), mustStar(7), graph.Path(7)})
	if err != nil {
		t.Fatal(err)
	}
	nets["cyclic-n7"] = cyc

	for name, net := range nets {
		n := net.N()
		seqProcs := newTranscriptProcs(n)
		seqRounds, err := RunSequential(&Config{Net: net, Procs: seqProcs, MaxRounds: 6})
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		for _, shards := range shardCounts {
			procs := newTranscriptProcs(n)
			rounds, err := RunSharded(&Config{Net: net, Procs: procs, MaxRounds: 6, Shards: shards})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			if rounds != seqRounds {
				t.Fatalf("%s shards=%d: %d rounds, sequential %d", name, shards, rounds, seqRounds)
			}
			sameTranscripts(t, name+"/"+strconv.Itoa(shards), seqProcs, procs)
		}
	}
}

// TestRunShardedCanonicalOrder pins delivery order against the documented
// rule directly (senders sorted by ordering key, ties by node id), not just
// against the sequential engine.
func TestRunShardedCanonicalOrder(t *testing.T) {
	// Star center node 0 hears every leaf; leaves 1..6 send the distinct
	// digits 8..3. digitKey delivers them in descending digit order;
	// without a CanonKey the key is StringKey of DefaultCanon's text.
	n := 7
	byText := []Message{"3", "4", "5", "6", "7", "8"}
	slices.SortFunc(byText, func(a, b Message) int {
		return cmp.Compare(StringKey(DefaultCanon(a)), StringKey(DefaultCanon(b)))
	})
	for _, tc := range []struct {
		name string
		key  KeyCanonicalizer
		want []Message
	}{
		{"CanonKey", digitKey, []Message{"8", "7", "6", "5", "4", "3"}},
		{"StringKey(DefaultCanon)", nil, byText},
	} {
		procs := make([]Process, n)
		for i := range procs {
			procs[i] = &transcriptProc{id: i, state: strconv.Itoa(9 - i)}
		}
		_, err := RunSharded(&Config{
			Net:       dynet.NewStatic(mustStar(n)),
			Procs:     procs,
			MaxRounds: 1,
			Shards:    3,
			CanonKey:  tc.key,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := procs[0].(*transcriptProc).received[0]; !slices.Equal(got, tc.want) {
			t.Fatalf("%s: center inbox %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRunShardedManyKeysMatchesSequential delivers rounds with far more
// than 12 distinct canonical keys, the size past which sort.Sort stops
// running an insertion sort, whose first-seen order is random with respect
// to node ids, with repeats for id tie-breaks. With an explicit CanonKey
// and with the StringKey fallback, delivery must follow the sequential
// engine's order.
func TestRunShardedManyKeysMatchesSequential(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(12))
	perm := rng.Perm(n)
	newProcs := func() []Process {
		procs := make([]Process, n)
		for i := range procs {
			procs[i] = &transcriptProc{id: i, state: strconv.Itoa(perm[i] % 40)}
		}
		return procs
	}
	churn, err := dynet.NewTInterval(n, 1, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]dynet.Dynamic{"star": dynet.NewStatic(mustStar(n)), "churn": churn}
	textKey := func(m Message) uint64 { return MixKey(StringKey(m.(string))) }
	for name, net := range nets {
		for _, keyed := range []bool{false, true} {
			cfg := func(procs []Process, shards int) *Config {
				c := &Config{Net: net, Procs: procs, MaxRounds: 3, Shards: shards}
				if keyed {
					c.CanonKey = textKey
				}
				return c
			}
			seq := newProcs()
			if _, err := RunSequential(cfg(seq, 0)); err != nil {
				t.Fatal(err)
			}
			for _, shards := range shardCounts {
				procs := newProcs()
				if _, err := RunSharded(cfg(procs, shards)); err != nil {
					t.Fatal(err)
				}
				sameTranscripts(t, fmt.Sprintf("%s keyed=%v shards=%d", name, keyed, shards), seq, procs)
			}
		}
	}
}

func TestRunShardedDegreeOracle(t *testing.T) {
	net, err := dynet.NewCyclic([]*graph.Graph{mustStar(6), graph.Path(6)})
	if err != nil {
		t.Fatal(err)
	}
	run := func(engine Engine) []Process {
		procs := make([]Process, 6)
		for i := range procs {
			procs[i] = &degreeProc{}
		}
		if _, err := engine(&Config{Net: net, Procs: procs, MaxRounds: 4, Shards: 2}); err != nil {
			t.Fatal(err)
		}
		return procs
	}
	seq := run(RunSequential)
	shd := run(RunSharded)
	for v := range seq {
		a, b := seq[v].(*degreeProc), shd[v].(*degreeProc)
		if len(a.degrees) != len(b.degrees) {
			t.Fatalf("node %d: %v vs %v", v, a.degrees, b.degrees)
		}
		for i := range a.degrees {
			if a.degrees[i] != b.degrees[i] {
				t.Fatalf("node %d: %v vs %v", v, a.degrees, b.degrees)
			}
		}
	}
}

func TestRunShardedAdaptive(t *testing.T) {
	// The adversary wires a path rooted at whichever node still lacks the
	// token — topology depends on the round's broadcasts.
	n := 6
	adaptive := func(r int, outbox []Message) *graph.Graph {
		g := graph.Path(n)
		for v, m := range outbox {
			if s, ok := m.(string); ok && len(s) > 3 && v > 0 {
				_ = g.RemoveEdge(graph.NodeID(v-1), graph.NodeID(v))
				break
			}
		}
		return g
	}
	run := func(engine Engine) []Process {
		procs := newTranscriptProcs(n)
		cfg := &Config{
			Net:       dynet.NewStatic(graph.Path(n)),
			Adaptive:  adaptive,
			Procs:     procs,
			MaxRounds: 5,
			Shards:    3,
		}
		if _, err := engine(cfg); err != nil {
			t.Fatal(err)
		}
		return procs
	}
	sameTranscripts(t, "adaptive", run(RunSequential), run(RunSharded))
}

func TestRunShardedStopAndOnRound(t *testing.T) {
	procs := newFloodProcs(5, 0)
	var hooks []int
	cfg := &Config{
		Net:       dynet.NewStatic(graph.Path(5)),
		Procs:     procs,
		MaxRounds: 100,
		Shards:    2,
		OnRound:   func(r int) { hooks = append(hooks, r) },
		Stop: func(int) bool {
			for _, p := range procs {
				if !p.(*floodProc).has {
					return false
				}
			}
			return true
		},
	}
	rounds, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 4 {
		t.Fatalf("rounds = %d, want 4", rounds)
	}
	if len(hooks) != 4 || hooks[3] != 3 {
		t.Fatalf("OnRound hooks = %v", hooks)
	}
}

type panicAtProc struct {
	node, round int
	phase       string // "send" or "receive"
}

func (p *panicAtProc) Send(r int) Message {
	if p.phase == "send" && r == p.round {
		panic("boom-send")
	}
	return nil
}

func (p *panicAtProc) Receive(r int, _ []Message) {
	if p.phase == "receive" && r == p.round {
		panic("boom-receive")
	}
}

func TestRunShardedPanicIsolation(t *testing.T) {
	for _, phase := range []string{"send", "receive"} {
		n := 9
		procs := make([]Process, n)
		for i := range procs {
			procs[i] = &panicAtProc{}
		}
		// Two panicking nodes in different shards: the lowest one must be
		// reported, as the sequential engine's in-order iteration would.
		procs[3] = &panicAtProc{node: 3, round: 1, phase: phase}
		procs[7] = &panicAtProc{node: 7, round: 1, phase: phase}
		rounds, err := RunSharded(&Config{
			Net:       dynet.NewStatic(mustCycle(n)),
			Procs:     procs,
			MaxRounds: 5,
			Shards:    3,
		})
		var pe *ProcessPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *ProcessPanicError", phase, err)
		}
		if pe.Node != 3 || pe.Round != 1 {
			t.Fatalf("%s: panic attributed to node %d round %d, want node 3 round 1", phase, pe.Node, pe.Round)
		}
		if rounds != 1 {
			t.Fatalf("%s: completed %d rounds, want 1", phase, rounds)
		}
	}
}

func TestRunShardedContextPaths(t *testing.T) {
	net := dynet.NewStatic(mustCycle(6))
	procs := newFloodProcs(6, 0)
	cfg := &Config{Net: net, Procs: procs, MaxRounds: 10, Shards: 2}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rounds, err := RunShardedCtx(ctx, cfg)
	if rounds != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: rounds=%d err=%v", rounds, err)
	}

	// Cancel mid-run via the OnRound hook.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cfg2 := &Config{
		Net: net, Procs: newFloodProcs(6, 0), MaxRounds: 10, Shards: 2,
		OnRound: func(r int) {
			if r == 2 {
				cancel2()
			}
		},
	}
	rounds, err = RunShardedCtx(ctx2, cfg2)
	if rounds != 3 || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: rounds=%d err=%v", rounds, err)
	}
}

type slowProc struct{ d time.Duration }

func (p *slowProc) Send(int) Message       { time.Sleep(p.d); return nil }
func (p *slowProc) Receive(int, []Message) {}

func TestRunShardedRoundDeadline(t *testing.T) {
	procs := make([]Process, 3)
	for i := range procs {
		procs[i] = &slowProc{d: 30 * time.Millisecond}
	}
	_, err := RunSharded(&Config{
		Net:           dynet.NewStatic(graph.Path(3)),
		Procs:         procs,
		MaxRounds:     3,
		Shards:        1,
		RoundDeadline: 5 * time.Millisecond,
	})
	var de *RoundDeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *RoundDeadlineError", err)
	}
	if de.Round != 0 {
		t.Fatalf("deadline at round %d, want 0", de.Round)
	}
}

// staticCSRNet serves a fixed topology natively in CSR form, exercising the
// engine's CSRDynamic fast path (no map graphs materialized).
type staticCSRNet struct {
	g   *graph.Graph
	csr *graph.CSR
}

func newStaticCSRNet(g *graph.Graph) *staticCSRNet {
	return &staticCSRNet{g: g, csr: g.CSR()}
}

func (s *staticCSRNet) N() int                     { return s.g.N() }
func (s *staticCSRNet) Snapshot(int) *graph.Graph  { return s.g }
func (s *staticCSRNet) SnapshotCSR(int) *graph.CSR { return s.csr }

func TestRunShardedCSRDynamicPath(t *testing.T) {
	g := mustStar(8)
	seqProcs := newTranscriptProcs(8)
	if _, err := RunSequential(&Config{Net: dynet.NewStatic(g), Procs: seqProcs, MaxRounds: 4}); err != nil {
		t.Fatal(err)
	}
	procs := newTranscriptProcs(8)
	net := newStaticCSRNet(g)
	if _, err := RunSharded(&Config{Net: net, Procs: procs, MaxRounds: 4, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	sameTranscripts(t, "csr-dynamic", seqProcs, procs)
}

// brokenCSRNet returns a CSR whose claimed total does not match its backing
// array — the shape a saturated (overflowed) offset accumulation produces.
type brokenCSRNet struct{ n int }

func (b *brokenCSRNet) N() int                    { return b.n }
func (b *brokenCSRNet) Snapshot(int) *graph.Graph { return graph.New(b.n) }
func (b *brokenCSRNet) SnapshotCSR(int) *graph.CSR {
	offsets := make([]int, b.n+1)
	offsets[b.n] = math.MaxInt // saturated size: no such arena is allocatable
	return &graph.CSR{Offsets: offsets, Nbrs: nil}
}

func TestRunShardedRejectsInvalidCSR(t *testing.T) {
	procs := newFloodProcs(4, 0)
	rounds, err := RunSharded(&Config{Net: &brokenCSRNet{n: 4}, Procs: procs, MaxRounds: 3, Shards: 2})
	if err == nil {
		t.Fatal("sharded engine accepted a corrupt CSR snapshot")
	}
	if rounds != 0 {
		t.Fatalf("completed %d rounds on a corrupt snapshot, want 0", rounds)
	}
}

func TestRunShardedValidation(t *testing.T) {
	procs := newFloodProcs(3, 0)
	net := dynet.NewStatic(graph.Path(3))
	if _, err := RunSharded(&Config{Net: net, Procs: procs, MaxRounds: 2, Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
	// Zero nodes and zero rounds are clean no-ops.
	if rounds, err := RunSharded(&Config{Net: dynet.NewStatic(graph.New(0)), Procs: nil, MaxRounds: 5}); err != nil || rounds != 0 {
		t.Errorf("zero nodes: rounds=%d err=%v", rounds, err)
	}
	if rounds, err := RunSharded(&Config{Net: net, Procs: procs, MaxRounds: 0}); err != nil || rounds != 0 {
		t.Errorf("zero rounds: rounds=%d err=%v", rounds, err)
	}
}

// TestShardBounds checks the partition arithmetic: shards tile [0, n)
// exactly, sizes differ by at most one — including at n = MaxInt, where the
// naive s*n/nw formula would overflow.
func TestShardBounds(t *testing.T) {
	for _, tc := range []struct{ n, nw int }{
		{1, 1}, {5, 2}, {7, 3}, {64, 8}, {10, 10}, {1000003, 7},
		{math.MaxInt, 1}, {math.MaxInt, 3}, {math.MaxInt, 64}, {math.MaxInt - 1, 63},
	} {
		prevHi := 0
		base := tc.n / tc.nw
		for s := 0; s < tc.nw; s++ {
			lo, hi := shardBounds(tc.n, tc.nw, s)
			if lo != prevHi {
				t.Fatalf("n=%d nw=%d shard %d: lo=%d, want %d (gap or overlap)", tc.n, tc.nw, s, lo, prevHi)
			}
			if size := hi - lo; size != base && size != base+1 {
				t.Fatalf("n=%d nw=%d shard %d: size %d, want %d or %d", tc.n, tc.nw, s, size, base, base+1)
			}
			if lo < 0 || hi < lo {
				t.Fatalf("n=%d nw=%d shard %d: bounds [%d,%d) overflowed", tc.n, tc.nw, s, lo, hi)
			}
			prevHi = hi
		}
		if prevHi != tc.n {
			t.Fatalf("n=%d nw=%d: shards end at %d, want %d", tc.n, tc.nw, prevHi, tc.n)
		}
	}
}

// retainingProc deliberately keeps every inbox slice it is handed, without
// copying, breaking the Process.Receive ownership rule.
type retainingProc struct {
	id       int
	retained [][]Message
}

func (p *retainingProc) Send(r int) Message { return strconv.Itoa(p.id*100 + r) }
func (p *retainingProc) Receive(_ int, msgs []Message) {
	p.retained = append(p.retained, msgs)
}

// TestDefaultReuseOverwritesRetained pins the zero-copy delivery contract:
// the engine-owned buffers really are recycled, so a retaining process sees
// its old slices change — the reason for the Process.Receive ownership
// rule. If this test starts failing, the engines quietly began copying and
// the performance contract changed.
func TestDefaultReuseOverwritesRetained(t *testing.T) {
	const n, rounds = 5, 4
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &retainingProc{id: i}
	}
	cfg := &Config{Net: dynet.NewStatic(mustCycle(n)), Procs: procs, MaxRounds: rounds}
	if _, err := RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	p := procs[0].(*retainingProc)
	first := p.retained[0]
	// Node 0's neighbors at round 0 sent "100" and "400"; by round 3 the
	// recycled buffer holds round-3 values.
	for _, m := range first {
		if m == "100" || m == "400" {
			t.Fatalf("retained round-0 inbox still holds round-0 message %v: buffer reuse disappeared", m)
		}
	}
}

// TestShardedRoundStepAllocCeiling locks the steady-state allocation budget
// of one sharded round, by differencing short and long runs as the
// sequential ceiling test does. The budget also holds with the per-round
// connectivity check on a ToPD2CSR network, whose CSR the engine rebuilds
// and searches every round up to the horizon.
func TestShardedRoundStepAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)

	const shortR, longR = 4, 44
	g, err := graph.Cycle(64)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := multigraph.Random(2, 60, longR, 5)
	if err != nil {
		t.Fatal(err)
	}
	pd2, _, err := mg.ToPD2CSR()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		net       dynet.Dynamic
		connected bool
	}{
		{"static-cycle", dynet.NewStatic(g), false},
		{"pd2-connected", pd2, true},
	} {
		n := tc.net.N()
		run := func(rounds int) {
			procs := make([]Process, n)
			for i := range procs {
				procs[i] = &quietProc{seen: i == 0}
			}
			cfg := &Config{Net: tc.net, Procs: procs, MaxRounds: rounds, CanonKey: quietKey, Shards: 2,
				IntervalConnected: tc.connected}
			if _, err := RunSharded(cfg); err != nil {
				t.Fatal(err)
			}
		}
		short := testing.AllocsPerRun(20, func() { run(shortR) })
		long := testing.AllocsPerRun(20, func() { run(longR) })
		perStep := (long - short) / float64(longR-shortR)
		if perStep > 2 {
			t.Errorf("%s: sharded round step allocates %.2f/step, want <= 2", tc.name, perStep)
		}
	}
}

// TestShardedEngineRaceSmoke is the CI race-mode smoke entry point: a small
// multi-shard run with protocol work in every phase, so `go test -race
// -run TestShardedEngineRaceSmoke` exercises all cross-shard handoffs.
func TestShardedEngineRaceSmoke(t *testing.T) {
	net, err := dynet.NewTInterval(16, 1, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4, 16} {
		procs := newTranscriptProcs(16)
		if _, err := RunSharded(&Config{Net: net, Procs: procs, MaxRounds: 5, Shards: shards}); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}

// TestConcurrentRunsShareGraphCSR runs two sharded runs at once on one
// static map graph, each with two shards. Both read the graph's one CSR,
// which their first rounds may build at the same moment; under -race this
// shows that the engine never writes it. Each run must deliver what a run
// on a copy of the graph delivers.
func TestConcurrentRunsShareGraphCSR(t *testing.T) {
	const n = 16
	g := graph.RandomConnected(n, 0.3, rand.New(rand.NewSource(5)))
	want := newTranscriptProcs(n)
	if _, err := RunSequential(&Config{Net: dynet.NewStatic(g.Clone()), Procs: want, MaxRounds: 6}); err != nil {
		t.Fatal(err)
	}
	net := dynet.NewStatic(g)
	var (
		procs = [2][]Process{newTranscriptProcs(n), newTranscriptProcs(n)}
		errs  [2]error
		wg    sync.WaitGroup
	)
	for i := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = RunSharded(&Config{Net: net, Procs: procs[i], MaxRounds: 6, Shards: 2, IntervalConnected: true})
		}()
	}
	wg.Wait()
	for i := range procs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		sameTranscripts(t, fmt.Sprintf("run %d", i), want, procs[i])
	}
}

// tokenProc is the minimal engine workload: the source floods a token,
// exercising send, canonical delivery, and receive each round with cheap
// protocol logic so the engine's own cost dominates.
type tokenProc struct{ seen bool }

func (p *tokenProc) Send(int) Message {
	if p.seen {
		return 1
	}
	return 0
}

func (p *tokenProc) Receive(_ int, msgs []Message) {
	for _, m := range msgs {
		if m == 1 {
			p.seen = true
		}
	}
}

func tokenKey(m Message) uint64 {
	if m == 1 {
		return 1
	}
	return 0
}

// BenchmarkShardedMDBL2Million is a million-W ℳ(DBL)₂ instance transformed
// by ToPD2CSR into a million-node 𝒢(PD)₂ network and flooded for four
// rounds on the sharded engine. Setup (the schedule, the transform, the
// process backing array) happens once outside the timer; each op resets
// process state in place and reruns the round loop, so allocs/op divided
// by the round count is the engine's per-round garbage at 10⁶ nodes.
func BenchmarkShardedMDBL2Million(b *testing.B) {
	const (
		millionW      = 1_000_000
		millionRounds = 4
	)
	prev := obs.Global()
	defer obs.Set(prev)
	obs.Set(nil)
	mg, err := multigraph.Random(2, millionW, millionRounds, 17)
	if err != nil {
		b.Fatal(err)
	}
	net, _, err := mg.ToPD2CSR()
	if err != nil {
		b.Fatal(err)
	}
	n := net.N()
	// One backing array, not 10⁶ individual process allocations.
	backing := make([]tokenProc, n)
	procs := make([]Process, n)
	for j := range procs {
		procs[j] = &backing[j]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range backing {
			backing[j].seen = j == 0
		}
		cfg := &Config{Net: net, Procs: procs, MaxRounds: millionRounds, CanonKey: tokenKey}
		if _, err := RunSharded(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
