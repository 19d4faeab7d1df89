package chainnet

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"anondyn/internal/core"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/multigraph"
	"anondyn/internal/runtime"
)

func TestBuildStructure(t *testing.T) {
	nw, err := Build(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 1+3+2+4 {
		t.Fatalf("N = %d, want 10", nw.N())
	}
	if nw.Delay() != 4 {
		t.Fatalf("Delay = %d, want 4", nw.Delay())
	}
	// Persistent distances: chain node i at distance i+1..., relays at
	// chainLen+1, W at chainLen+2.
	horizon := nw.Schedule.Horizon()
	dist, err := dynet.VerifyPersistentDistance(nw.Net, nw.Leader, horizon)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range nw.Chain {
		if dist[c] != i+1 {
			t.Fatalf("chain node %d at distance %d, want %d", c, dist[c], i+1)
		}
	}
	for _, r := range nw.Relays {
		if dist[r] != 4 {
			t.Fatalf("relay %d at distance %d, want 4", r, dist[r])
		}
	}
	for _, w := range nw.W {
		if dist[w] != 5 {
			t.Fatalf("W node %d at distance %d, want 5", w, dist[w])
		}
	}
	if err := dynet.VerifyIntervalConnectivity(nw.Net, horizon); err != nil {
		t.Fatal(err)
	}
}

func TestBuildZeroChainIsPD2(t *testing.T) {
	nw, err := Build(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := dynet.PDClass(nw.Net, nw.Leader, nw.Schedule.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	if h != 2 {
		t.Fatalf("PD class = %d, want 2", h)
	}
	if nw.Delay() != 1 {
		t.Fatalf("Delay = %d, want 1", nw.Delay())
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(0, 1); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := Build(4, -1); err == nil {
		t.Fatal("negative chain should error")
	}
	k3, err := multigraph.Random(3, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFromSchedule(k3, 0); err == nil {
		t.Fatal("k=3 schedule should error")
	}
	empty, err := multigraph.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFromSchedule(empty, 0); err == nil {
		t.Fatal("zero-horizon schedule should error")
	}
}

// TestRunCountMatchesCorollary1 is the end-to-end Corollary 1 experiment:
// the message-passing leader terminates at exactly delay + bound rounds,
// with the correct count, for a grid of sizes and chain lengths.
func TestRunCountMatchesCorollary1(t *testing.T) {
	for _, tc := range []struct{ n, chainLen int }{
		{1, 0}, {4, 0}, {4, 2}, {13, 0}, {13, 3}, {40, 5},
	} {
		nw, err := Build(tc.n, tc.chainLen)
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", tc.n, tc.chainLen, err)
		}
		bound := core.LowerBoundRounds(tc.n)
		budget := bound + nw.Delay() + 5
		res, err := RunCount(nw, budget, runtime.RunSequential)
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", tc.n, tc.chainLen, err)
		}
		if res.Count != tc.n {
			t.Fatalf("n=%d m=%d: counted %d", tc.n, tc.chainLen, res.Count)
		}
		if want := bound + nw.Delay(); res.Rounds != want {
			t.Fatalf("n=%d m=%d: %d rounds, want %d", tc.n, tc.chainLen, res.Rounds, want)
		}
	}
}

func TestRunCountEnginesAgree(t *testing.T) {
	nw, err := Build(13, 2)
	if err != nil {
		t.Fatal(err)
	}
	budget := core.LowerBoundRounds(13) + nw.Delay() + 5
	seq, err := RunCount(nw, budget, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh network: processes are stateful, so rebuild.
	nw2, err := Build(13, 2)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := RunCount(nw2, budget, runtime.RunSharded)
	if err != nil {
		t.Fatal(err)
	}
	if seq != sh {
		t.Fatalf("engines disagree: %+v vs %+v", seq, sh)
	}
}

func TestRunCountBudgetTooSmall(t *testing.T) {
	nw, err := Build(13, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCount(nw, 3, runtime.RunSequential); err == nil {
		t.Fatal("insufficient budget should error")
	}
}

// TestRunCountBenignSchedule runs the protocol over a benign schedule: all
// nodes on label {1} forever. The count resolves as soon as the first
// complete observation crosses the chain.
func TestRunCountBenignSchedule(t *testing.T) {
	labels := make([][]multigraph.LabelSet, 5)
	for v := range labels {
		labels[v] = []multigraph.LabelSet{
			multigraph.SetOf(1), multigraph.SetOf(1), multigraph.SetOf(1),
		}
	}
	m, err := multigraph.New(2, labels)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := BuildFromSchedule(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCount(nw, 20, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 5 {
		t.Fatalf("counted %d, want 5", res.Count)
	}
	// Benign bound: 1 round of observation + delay 3.
	if want := 1 + nw.Delay(); res.Rounds != want {
		t.Fatalf("rounds = %d, want %d", res.Rounds, want)
	}
}

// TestWStateTrackingMatchesSchedule verifies the protocol's W nodes
// reconstruct exactly the schedule's label histories (the model alignment
// behind Definition 6).
func TestWStateTrackingMatchesSchedule(t *testing.T) {
	nw, err := Build(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]runtime.Process, nw.N())
	procs[nw.Leader] = newLeaderProc()
	for _, c := range nw.Chain {
		procs[c] = newChainProc()
	}
	for j, r := range nw.Relays {
		procs[r] = &relayProc{label: j + 1}
	}
	wProcs := make([]*wProc, len(nw.W))
	for i, w := range nw.W {
		wProcs[i] = &wProc{}
		procs[w] = wProcs[i]
	}
	rounds := nw.Schedule.Horizon()
	cfg := &runtime.Config{Net: nw.Net, Procs: procs, Canon: canon, MaxRounds: rounds}
	if _, err := runtime.RunSequential(cfg); err != nil {
		t.Fatal(err)
	}
	for i, wp := range wProcs {
		want, err := nw.Schedule.StateOf(i, rounds)
		if err != nil {
			t.Fatal(err)
		}
		if got := wHistory(wp); !got.Equal(want) {
			t.Fatalf("W %d history %v, schedule says %v", i, got, want)
		}
	}
}

// wHistory is the history a W node holds, in either of its forms.
func wHistory(p *wProc) multigraph.History {
	if p.history != nil {
		return p.history
	}
	return multigraph.HistoryFromIndex(int(p.index), p.n, 2)
}

func TestFactCanonicalDeterministic(t *testing.T) {
	// The same round-2 multiset as indices and as keys: {1,2}{1} twice,
	// {1}{2} once. Both forms print the keys in string order.
	indexed := newFact(2, 1, []stateCount{{State: 1, Count: 1}, {State: 6, Count: 2}}, nil)
	keyed := newFact(2, 1, nil, map[string]int{"3.1": 2, "1.2": 1})
	const want = "f2/1{[1.2]x1;[3.1]x2;}"
	for _, f := range []fact{indexed, keyed} {
		if got := f.canonical(); got != want {
			t.Fatalf("canonical %q, want %q", got, want)
		}
		if f.canonical() != f.canonical() {
			t.Fatal("fact canonical not deterministic")
		}
	}
}

func TestCanonMessageKinds(t *testing.T) {
	msgs := []runtime.Message{
		nil,
		&stateMsg{Index: 1, Len: 2},
		keyMsg{Key: "3.3"},
		relayBeacon{Label: 1},
		forwardMsg{},
		42,
	}
	seen := map[string]bool{}
	for _, m := range msgs[1:] {
		c := canon(m)
		if c == "" {
			t.Fatalf("canon(%v) empty", m)
		}
		if seen[c] {
			t.Fatalf("canon collision for %v", m)
		}
		seen[c] = true
	}
	if canon(nil) != "" {
		t.Fatal("canon(nil) should be empty")
	}
	// A state prints as its key in either form.
	if a, b := canon(&stateMsg{Index: 1, Len: 2}), canon(keyMsg{Key: "1.2"}); a != b {
		t.Fatalf("state 1.2 prints as %q indexed and %q keyed", a, b)
	}
}

// TestLeaderRejectsInconsistentFacts injects fabricated relay facts that no
// legal execution could produce: the leader's solver detects the
// inconsistency (empty interval) and refuses to terminate, rather than
// emitting a wrong count.
func TestLeaderRejectsInconsistentFacts(t *testing.T) {
	lp := newLeaderProc()
	// Round 0: one node on each label.
	root := []stateCount{{State: 0, Count: 1}}
	lp.Receive(0, []runtime.Message{
		relayBeacon{Label: 1, Facts: []fact{newFact(0, 1, root, nil)}},
		relayBeacon{Label: 2, Facts: []fact{newFact(0, 2, root, nil)}},
	})
	if _, done := lp.Output(); done {
		t.Fatal("leader terminated on an ambiguous single round")
	}
	// Round 1: claim a node whose state was {2} on relay 1 AND a node
	// whose state was {1} on relay 2, while round 0 showed only one node
	// per label — inconsistent multiplicities.
	i1 := int64(multigraph.History{multigraph.SetOf(1)}.Index(2))
	i2 := int64(multigraph.History{multigraph.SetOf(2)}.Index(2))
	lp.Receive(1, []runtime.Message{
		relayBeacon{Label: 1, Facts: []fact{newFact(1, 1, []stateCount{{State: i2, Count: 5}}, nil)}},
		relayBeacon{Label: 2, Facts: []fact{newFact(1, 2, []stateCount{{State: i1, Count: 5}}, nil)}},
	})
	if _, done := lp.Output(); done {
		t.Fatal("leader terminated on inconsistent facts")
	}
}

// Property: for random small (n, chainLen), the end-to-end protocol
// terminates at exactly delay + bound with the right count.
func TestRunCountProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(rawN, rawC uint8) bool {
		n := int(rawN%20) + 1
		chainLen := int(rawC % 4)
		nw, err := Build(n, chainLen)
		if err != nil {
			return false
		}
		bound := core.LowerBoundRounds(n)
		res, err := RunCount(nw, bound+nw.Delay()+5, runtime.RunSequential)
		if err != nil {
			return false
		}
		return res.Count == n && res.Rounds == bound+nw.Delay()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// snapshotCounter serves a chain network and counts its map-graph
// Snapshot calls; N and SnapshotCSR are the PD2Net's own.
type snapshotCounter struct {
	*multigraph.PD2Net
	snapshots atomic.Int64
}

func (c *snapshotCounter) Snapshot(r int) *graph.Graph {
	c.snapshots.Add(1)
	return c.PD2Net.Snapshot(r)
}

// TestRunCountReadsOnlyCSR checks that both entry points read a chain
// network in CSR form only: no round builds a map graph.
func TestRunCountReadsOnlyCSR(t *testing.T) {
	for _, chainLen := range []int{0, 2} {
		for name, run := range map[string]runtime.Engine{
			"sharded":    runtime.RunSharded,
			"sequential": runtime.RunSequential,
		} {
			nw, err := Build(13, chainLen)
			if err != nil {
				t.Fatal(err)
			}
			counter := &snapshotCounter{PD2Net: nw.Net.(*multigraph.PD2Net)}
			nw.Net = counter
			res, err := RunCount(nw, core.LowerBoundRounds(13)+nw.Delay()+5, run)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != 13 {
				t.Fatalf("%s chain %d: counted %d", name, chainLen, res.Count)
			}
			if got := counter.snapshots.Load(); got != 0 {
				t.Fatalf("%s chain %d: %d Snapshot calls", name, chainLen, got)
			}
		}
	}
}

// inboxLog records every inbox its process is handed. A W node's state
// message is valid only until its next Send (runtime.Message), so the log
// keeps a copy of each.
type inboxLog struct {
	runtime.Process
	inboxes [][]runtime.Message
}

func (l *inboxLog) Receive(r int, msgs []runtime.Message) {
	in := append([]runtime.Message(nil), msgs...)
	for i, m := range in {
		if sm, ok := m.(*stateMsg); ok {
			c := *sm
			in[i] = &c
		}
	}
	l.inboxes = append(l.inboxes, in)
	l.Process.Receive(r, msgs)
}

// TestProcessesIgnoreInboxOrder replays every inbox of a real run, permuted,
// to fresh processes of each type and checks they reach the state of the
// process that heard the engine's order. This is why canonKey's ties are
// harmless.
func TestProcessesIgnoreInboxOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, chainLen := range []int{0, 2} {
		nw, err := Build(13, chainLen)
		if err != nil {
			t.Fatal(err)
		}
		rounds := core.LowerBoundRounds(13) + nw.Delay()
		logs := make([]*inboxLog, nw.N())
		procs := newProcs(nw)
		for v, p := range procs {
			logs[v] = &inboxLog{Process: p}
			procs[v] = logs[v]
		}
		cfg := &runtime.Config{Net: nw.Net, Procs: procs, CanonKey: canonKey, MaxRounds: rounds}
		if _, err := runtime.RunSequential(cfg); err != nil {
			t.Fatal(err)
		}
		if _, done := logs[nw.Leader].Process.(*leaderProc).Output(); !done {
			t.Fatalf("chain %d: leader did not terminate", chainLen)
		}
		for trial := 0; trial < 4; trial++ {
			for v, p := range newProcs(nw) {
				for r, inbox := range logs[v].inboxes {
					perm := append([]runtime.Message(nil), inbox...)
					if trial == 0 {
						slices.Reverse(perm)
					} else {
						rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
					}
					p.Send(r)
					p.Receive(r, perm)
				}
				if !reflect.DeepEqual(p, logs[v].Process) {
					t.Fatalf("chain %d trial %d: node %d (%T) reached another state on a permuted inbox",
						chainLen, trial, v, p)
				}
			}
		}
	}
}

// TestCanonKeyDependsOnContentOnly checks that canonKey fingerprints what a
// message says, not who sent it or in which order its parts were built.
func TestCanonKeyDependsOnContentOnly(t *testing.T) {
	s1 := &stateMsg{Index: int64(multigraph.History{multigraph.SetOf(1)}.Index(2)), Len: 1}
	s2 := &stateMsg{Index: int64(multigraph.History{multigraph.SetOf(1, 2)}.Index(2)), Len: 1}
	inbox := []runtime.Message{s1, s2, s1, nil}
	// Two relays of the same label hear the same states in opposite
	// orders: equal facts, equal beacons, equal keys.
	a, b := &relayProc{label: 1}, &relayProc{label: 1}
	a.Receive(0, inbox)
	b.Receive(0, []runtime.Message{inbox[3], inbox[2], inbox[1], inbox[0]})
	if ka, kb := canonKey(a.Send(1)), canonKey(b.Send(1)); ka != kb {
		t.Fatalf("equal beacons keyed %#x and %#x", ka, kb)
	}
	// Keys maps filled in different orders fingerprint alike; map
	// iteration order is randomized, so repeat.
	fwd, rev := make(map[string]int), make(map[string]int)
	keys := []string{"", "1", "2", "3", "1.3", "3.2.1", "2.2"}
	for i, k := range keys {
		fwd[k] = i + 1
	}
	for i := len(keys) - 1; i >= 0; i-- {
		rev[keys[i]] = i + 1
	}
	want := newFact(4, 2, nil, fwd).hash
	for i := 0; i < 20; i++ {
		if got := newFact(4, 2, nil, rev).hash; got != want {
			t.Fatalf("fact hash %#x, want %#x", got, want)
		}
	}
	// A forwarded fact list keys alike in any order, and equal state
	// messages key alike.
	f1 := newFact(0, 1, []stateCount{{State: 0, Count: 3}}, nil)
	f2 := newFact(0, 2, nil, rev)
	if canonKey(forwardMsg{Facts: []fact{f1, f2}}) != canonKey(forwardMsg{Facts: []fact{f2, f1}}) {
		t.Fatal("fact order changed a forward key")
	}
	if canonKey(&stateMsg{Index: s1.Index, Len: 1}) != canonKey(s1) || canonKey(keyMsg{Key: "1"}) != canonKey(keyMsg{Key: "1"}) {
		t.Fatal("equal state messages keyed apart")
	}
	// Distinct messages key apart; nil and foreign messages key 0.
	distinct := []runtime.Message{
		s1, s2, &stateMsg{}, &stateMsg{Index: s1.Index, Len: 2},
		keyMsg{Key: "1"}, keyMsg{Key: "1.3"}, keyMsg{},
		relayBeacon{Label: 1}, relayBeacon{Label: 2}, relayBeacon{Label: 1, Facts: []fact{f1}},
		forwardMsg{}, forwardMsg{Facts: []fact{f1}}, forwardMsg{Facts: []fact{f1, f2}},
	}
	seen := map[uint64]runtime.Message{}
	for _, m := range distinct {
		k := canonKey(m)
		if prev, dup := seen[k]; dup {
			t.Fatalf("%#v and %#v share key %#x", prev, m, k)
		}
		seen[k] = m
	}
	if canonKey(nil) != 0 || canonKey(42) != 0 {
		t.Fatal("nil or a foreign message has a nonzero key")
	}
}

// TestStateKeysFollowIndexOrder checks the level-order state keys: the
// states of one length key in ascending index order, every shorter state
// keys below every longer one, and the longest indexed states stay below
// 2^63.
func TestStateKeysFollowIndexOrder(t *testing.T) {
	prev := uint64(0)
	for l := 0; l <= 4; l++ {
		for i := 0; i < multigraph.HistoryCount(l, 2); i++ {
			k := canonKey(&stateMsg{Index: int64(i), Len: l})
			if k != prev+1 {
				t.Fatalf("state %d of length %d keyed %d after %d", i, l, k, prev)
			}
			prev = k
		}
	}
	top := multigraph.MaxIndexedRounds
	last := int64(multigraph.HistoryCount(top, 2) - 1)
	if k := canonKey(&stateMsg{Index: last, Len: top}); k >= 1<<63 || k <= canonKey(&stateMsg{Index: 0, Len: top}) {
		t.Fatalf("last state of length %d keyed %#x", top, k)
	}
}

// TestRunCountPastIndexCapacity runs a chain long enough that the W
// histories pass indexLimit before the leader terminates: W nodes switch to
// key messages and the relays to key facts mid-run, and the count still
// lands at exactly delay + bound on both engines.
func TestRunCountPastIndexCapacity(t *testing.T) {
	for _, engine := range []struct {
		name string
		run  runtime.Engine
	}{{"sequential", runtime.RunSequential}, {"sharded", runtime.RunSharded}} {
		nw, err := Build(13, 45)
		if err != nil {
			t.Fatal(err)
		}
		want := core.LowerBoundRounds(13) + nw.Delay()
		if want <= indexLimit+1 {
			t.Fatalf("run of %d rounds never passes index capacity %d", want, indexLimit)
		}
		res, err := RunCount(nw, want+5, engine.run)
		if err != nil {
			t.Fatalf("%s: %v", engine.name, err)
		}
		if res.Count != 13 || res.Rounds != want {
			t.Fatalf("%s: counted %d in %d rounds, want 13 in %d", engine.name, res.Count, res.Rounds, want)
		}
	}
}

// withIndexLimit moves the protocol's index→key crossover for one test.
func withIndexLimit(t *testing.T, limit int) {
	prev := indexLimit
	indexLimit = limit
	t.Cleanup(func() { indexLimit = prev })
}

// TestEarlyKeyCrossover moves the index→key crossover to round 2: from
// there on, W nodes send keys and relays make key facts, which the leader
// never feeds to its solver. The recorded transcript equals that of the
// indexed run. On both engines RunCount, whose leader needs the facts of
// round 2 to settle Build(13, 2), returns an error and no count, never a
// wrong count, and the leader's solver takes the two indexed rounds only.
func TestEarlyKeyCrossover(t *testing.T) {
	indexedTrace := recordJSON(t)

	withIndexLimit(t, 1)
	for _, run := range []runtime.Engine{runtime.RunSequential, runtime.RunSharded} {
		nw, err := Build(13, 2)
		if err != nil {
			t.Fatal(err)
		}
		maxRounds := core.LowerBoundRounds(13) + nw.Delay() + 5
		res, err := RunCount(nw, maxRounds, run)
		if err == nil || res != (CountResult{}) {
			t.Fatalf("keys from round 2: RunCount = %+v, %v; want an error and no count", res, err)
		}
		procs := newProcs(nw)
		if _, err := run(&runtime.Config{Net: nw.Net, Procs: procs, CanonKey: canonKey, MaxRounds: maxRounds}); err != nil {
			t.Fatal(err)
		}
		if got := procs[nw.Leader].(*leaderProc).solver.Rounds(); got != 2 {
			t.Fatalf("keys from round 2: the leader's solver took %d rounds, want the 2 indexed ones", got)
		}
	}
	if !bytes.Equal(recordJSON(t), indexedTrace) {
		t.Fatal("the transcript changed when states switched to keys at round 2")
	}
}

// recordJSON records the protocol on Build(13, 2) through the round the
// leader terminates in.
func recordJSON(t *testing.T) []byte {
	nw, err := Build(13, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RecordTrace(context.Background(), nw, core.LowerBoundRounds(13)+nw.Delay())
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRelaysHearStatesSorted checks what lets a relay count without a sort:
// in both engines' delivery order, the states in a relay's inbox ascend.
func TestRelaysHearStatesSorted(t *testing.T) {
	for _, run := range []runtime.Engine{runtime.RunSequential, runtime.RunSharded} {
		nw, err := Build(121, 1)
		if err != nil {
			t.Fatal(err)
		}
		procs := newProcs(nw)
		logs := make([]*inboxLog, len(nw.Relays))
		for j, r := range nw.Relays {
			logs[j] = &inboxLog{Process: procs[r]}
			procs[r] = logs[j]
		}
		cfg := &runtime.Config{Net: nw.Net, Procs: procs, CanonKey: canonKey, MaxRounds: nw.Schedule.Horizon()}
		if _, err := run(cfg); err != nil {
			t.Fatal(err)
		}
		for j, l := range logs {
			for r, inbox := range l.inboxes {
				var states []int64
				for _, m := range inbox {
					if sm, ok := m.(*stateMsg); ok {
						states = append(states, sm.Index)
					}
				}
				if !slices.IsSorted(states) {
					t.Fatalf("relay %d round %d heard states %v", j+1, r, states)
				}
			}
		}
	}
}

// TestRunCountAllocsPerWNode bounds what a W node costs a count on either
// entry point: nothing of its own, since it reuses its state message
// (runtime.Message), so the bound covers the protocol's other allocations
// spread over the W nodes. A boxed state message, a formatted key string or
// a copied history each round would show as about one more per W node per
// round each, and so would a map graph built every round.
func TestRunCountAllocsPerWNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	nw, err := Build(364, 0)
	if err != nil {
		t.Fatal(err)
	}
	rounds := core.LowerBoundRounds(364) + nw.Delay()
	for name, run := range map[string]runtime.Engine{
		"sharded":    runtime.RunSharded,
		"sequential": runtime.RunSequential,
	} {
		allocs := testing.AllocsPerRun(5, func() {
			res, err := RunCount(nw, rounds+5, run)
			if err != nil || res.Count != 364 || res.Rounds != rounds {
				t.Fatalf("%s: count %+v, %v", name, res, err)
			}
		})
		// 0.16 measured; 1.2 when each state message was boxed.
		if per := allocs / float64(len(nw.W)*rounds); per > 0.3 {
			t.Errorf("%s: %.0f allocations, %.2f per W node per round, want <= 0.3", name, allocs, per)
		}
	}
}
