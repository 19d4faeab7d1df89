package chainnet

import (
	"testing"
	"testing/quick"

	"anondyn/internal/core"
	"anondyn/internal/dynet"
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
		if !wp.history.Equal(want) {
			t.Fatalf("W %d history %v, schedule says %v", i, wp.history, want)
		}
	}
}

func TestFactCanonicalDeterministic(t *testing.T) {
	f := fact{Round: 2, Label: 1, States: map[string]int{"3": 2, "1": 1}}
	a := f.canonical()
	b := f.canonical()
	if a != b {
		t.Fatal("fact canonical not deterministic")
	}
	if a == "" {
		t.Fatal("empty canonical")
	}
}

func TestCanonMessageKinds(t *testing.T) {
	msgs := []runtime.Message{
		nil,
		stateMsg{StateKey: "1.2"},
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
}

// TestLeaderRejectsInconsistentFacts injects fabricated relay facts that no
// legal execution could produce: the leader's solver detects the
// inconsistency (empty interval) and refuses to terminate, rather than
// emitting a wrong count.
func TestLeaderRejectsInconsistentFacts(t *testing.T) {
	lp := newLeaderProc()
	// Round 0: one node on each label.
	lp.Receive(0, []runtime.Message{
		relayBeacon{Label: 1, Facts: []fact{{Round: 0, Label: 1, States: map[string]int{"": 1}}}},
		relayBeacon{Label: 2, Facts: []fact{{Round: 0, Label: 2, States: map[string]int{"": 1}}}},
	})
	if _, done := lp.Output(); done {
		t.Fatal("leader terminated on an ambiguous single round")
	}
	// Round 1: claim a node whose state was {2} on relay 1 AND a node
	// whose state was {1} on relay 2, while round 0 showed only one node
	// per label — inconsistent multiplicities.
	k1 := multigraph.History{multigraph.SetOf(1)}.Key()
	k2 := multigraph.History{multigraph.SetOf(2)}.Key()
	lp.Receive(1, []runtime.Message{
		relayBeacon{Label: 1, Facts: []fact{{Round: 1, Label: 1, States: map[string]int{k2: 5}}}},
		relayBeacon{Label: 2, Facts: []fact{{Round: 1, Label: 2, States: map[string]int{k1: 5}}}},
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
