package histtree

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// bitsetProc is the reference for the leader's view: the bitset protocol,
// in which every process keeps its whole view as a bitset over intern ids
// and broadcasts a copy with its class, and a receiver ORs in the views it
// hears and adds its new class. Its class update is written out again
// rather than borrowed from proc, so the reference shares only the Tree
// with the code under test.
type bitsetProc struct {
	tree *Tree
	cur  int32
	hash uint64
	view []uint64
}

type bitsetMsg struct {
	cur  int32
	hash uint64
	view []uint64
}

func newBitsetProc(tree *Tree, leader bool) *bitsetProc {
	p := &bitsetProc{tree: tree, cur: tree.Root(leader)}
	p.hash = tree.Hash(p.cur)
	p.add(p.cur)
	return p
}

func (p *bitsetProc) add(id int32) {
	w := int(id >> 6)
	for len(p.view) <= w {
		p.view = append(p.view, 0)
	}
	p.view[w] |= 1 << uint(id&63)
}

func (p *bitsetProc) Send(int) runtime.Message {
	return &bitsetMsg{cur: p.cur, hash: p.hash, view: slices.Clone(p.view)}
}

func (p *bitsetProc) Receive(_ int, msgs []runtime.Message) {
	mult := make(map[int32]int32)
	for _, m := range msgs {
		bm := m.(*bitsetMsg)
		mult[bm.cur]++
		for len(p.view) < len(bm.view) {
			p.view = append(p.view, 0)
		}
		for i, w := range bm.view {
			p.view[i] |= w
		}
	}
	heard := make([]RedEdge, 0, len(mult))
	for c, k := range mult {
		heard = append(heard, RedEdge{Class: c, Mult: k})
	}
	p.cur, p.hash = p.tree.ExtendHash(p.cur, heard)
	p.add(p.cur)
}

func (p *bitsetProc) ids() []int32 {
	var out []int32
	for i, w := range p.view {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// levelSets groups classes by level, each level sorted: by id, or by
// structural hash when byHash is set, the form that compares across runs
// whose interning orders differ.
func levelSets(tree *Tree, ids []int32, byHash bool) [][]uint64 {
	var out [][]uint64
	for _, id := range ids {
		lv, _, _ := tree.Info(id)
		for len(out) <= lv {
			out = append(out, nil)
		}
		k := uint64(id)
		if byHash {
			k = tree.Hash(id)
		}
		out[lv] = append(out[lv], k)
	}
	for _, s := range out {
		slices.Sort(s)
	}
	return out
}

// leaderSets returns the classes the protocol's leader sees, by level.
func leaderSets(l *leaderProc, byHash bool) [][]uint64 {
	var ids []int32
	for _, lv := range l.perLevel {
		ids = append(ids, lv...)
	}
	return levelSets(l.tree, ids, byHash)
}

// viewRun is one run's leader: its visible classes after every round, and
// its output.
type viewRun struct {
	sets          [][][]uint64
	count, rounds int
}

// protocolRun runs Count's processes on net until the leader outputs,
// recording the leader's visible classes after every round. wrap, when
// non-nil, may replace non-leader processes before the run.
func protocolRun(t *testing.T, net dynet.Dynamic, leader graph.NodeID, run Runner, byHash bool, wrap func([]runtime.Process)) viewRun {
	t.Helper()
	procs := newProcs(net.N(), leader)
	l := procs[leader].(*leaderProc)
	if wrap != nil {
		wrap(procs)
	}
	var vr viewRun
	cfg := &runtime.Config{
		Net:               net,
		Procs:             procs,
		CanonKey:          canonKey,
		MaxRounds:         4*net.N() + 20,
		IntervalConnected: true,
		Shards:            4,
		OnRound:           func(int) { vr.sets = append(vr.sets, leaderSets(l, byHash)) },
	}
	count, rounds, ok, err := runtime.RunUntilOutput(cfg, int(leader), run)
	if err != nil {
		t.Fatalf("protocol run: %v", err)
	}
	if !ok {
		t.Fatalf("protocol run: the leader gave no count within %d rounds", cfg.MaxRounds)
	}
	vr.count, vr.rounds = count, rounds
	return vr
}

// bitsetRun runs the bitset reference on net for the given rounds,
// recording its leader's view after every round.
func bitsetRun(t *testing.T, net dynet.Dynamic, leader graph.NodeID, rounds int, run Runner, byHash bool) [][][]uint64 {
	t.Helper()
	tree := New()
	procs := make([]runtime.Process, net.N())
	for i := range procs {
		procs[i] = newBitsetProc(tree, graph.NodeID(i) == leader)
	}
	l := procs[leader].(*bitsetProc)
	var sets [][][]uint64
	cfg := &runtime.Config{
		Net:               net,
		Procs:             procs,
		CanonKey:          func(m runtime.Message) uint64 { return m.(*bitsetMsg).hash },
		MaxRounds:         rounds,
		IntervalConnected: true,
		Shards:            4,
		OnRound:           func(int) { sets = append(sets, levelSets(tree, l.ids(), byHash)) },
	}
	if _, err := run(cfg); err != nil {
		t.Fatalf("bitset run: %v", err)
	}
	return sets
}

// diffSets describes the first round at which two recorded leaders differ.
func diffSets(got, want [][][]uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rounds recorded, want %d", len(got), len(want))
	}
	for r := range got {
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("round %d: %d levels visible, want %d", r, len(got[r]), len(want[r]))
		}
		for lv := range got[r] {
			if !slices.Equal(got[r][lv], want[r][lv]) {
				return fmt.Errorf("round %d level %d: visible %v, want %v", r, lv, got[r][lv], want[r][lv])
			}
		}
	}
	return nil
}

// viewNet builds a fresh network and names its leader; adaptive families
// keep per-run state, so every run gets its own.
type viewNet struct {
	name string
	mk   func(t *testing.T) (dynet.Dynamic, graph.NodeID)
}

func viewNets() []viewNet {
	static := func(n int, leader graph.NodeID) func(t *testing.T) (dynet.Dynamic, graph.NodeID) {
		return func(t *testing.T) (dynet.Dynamic, graph.NodeID) { return cycleNet(t, n), leader }
	}
	fromErr := func(mk func() (dynet.Dynamic, error)) func(t *testing.T) (dynet.Dynamic, graph.NodeID) {
		return func(t *testing.T) (dynet.Dynamic, graph.NodeID) {
			net, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			return net, 0
		}
	}
	worst := func(w int) func(t *testing.T) (dynet.Dynamic, graph.NodeID) {
		return func(t *testing.T) (dynet.Dynamic, graph.NodeID) {
			wc, err := core.WorstCaseAdversary(w)
			if err != nil {
				t.Fatal(err)
			}
			return wc.Net, wc.Layout.Leader
		}
	}
	nets := []viewNet{
		{"cycle-5", static(5, 0)},
		{"cycle-9", static(9, 0)},
		{"cycle-33", static(33, 0)},
		{"cycle-40-leader-7", static(40, 7)},
		{"worstcase-4", worst(4)},
		{"worstcase-13", worst(13)},
		{"worstcase-40", worst(40)},
		{"flood-delay-7", fromErr(func() (dynet.Dynamic, error) { return dynet.NewFloodDelaying(7, 0) })},
		{"flood-delay-13", fromErr(func() (dynet.Dynamic, error) { return dynet.NewFloodDelaying(13, 0) })},
	}
	for _, n := range []int{6, 9, 12} {
		for seed := int64(1); seed <= 2; seed++ {
			nets = append(nets,
				viewNet{fmt.Sprintf("churn-%d-seed%d", n, seed), fromErr(func() (dynet.Dynamic, error) {
					return dynet.NewTInterval(n, 1, 0.4, seed)
				})},
				viewNet{fmt.Sprintf("tinterval-%d-seed%d", n, seed), fromErr(func() (dynet.Dynamic, error) {
					return dynet.NewTInterval(n, 3, 0.2, seed)
				})},
				viewNet{fmt.Sprintf("randomized-%d-seed%d", n, seed), fromErr(func() (dynet.Dynamic, error) {
					return dynet.NewTInterval(n, 1, 0.3, seed)
				})})
		}
	}
	return nets
}

// viewEngines are the engines the view tests run on. The sequential engine
// interns in the same order in every run, so visible sets compare by id;
// the sharded engine does not, so they compare by structural hash.
var viewEngines = []struct {
	name   string
	run    Runner
	byHash bool
}{
	{"sequential", runtime.SequentialEngine(context.Background()), false},
	{"sharded", runtime.ShardedEngine(context.Background()), true},
}

// TestLeaderViewMatchesBitsetReference is the guard on reading views off
// the tree: round by round, the classes the leader indexes by walking down
// from its own class are exactly the view the bitset protocol builds by
// broadcasting and merging whole views.
func TestLeaderViewMatchesBitsetReference(t *testing.T) {
	for _, vn := range viewNets() {
		for _, eng := range viewEngines {
			t.Run(vn.name+"/"+eng.name, func(t *testing.T) {
				net, leader := vn.mk(t)
				got := protocolRun(t, net, leader, eng.run, eng.byHash, nil)
				net, _ = vn.mk(t)
				want := bitsetRun(t, net, leader, got.rounds, eng.run, eng.byHash)
				if err := diffSets(got.sets, want); err != nil {
					t.Fatalf("leader view differs from the bitset reference: %v", err)
				}
			})
		}
	}
}

// phantomProc is a non-leader that also interns, every round, a class no
// process can be in: its members would have heard 99 messages from their
// own class, more than any node of these networks has neighbors.
type phantomProc struct{ *proc }

func (p phantomProc) Receive(r int, msgs []runtime.Message) {
	p.proc.Receive(r, msgs)
	p.tree.Extend(p.cur, []RedEdge{{Class: p.cur, Mult: 99}})
}

// TestUnreachableClassNeverSeen is the guard on what the leader may read:
// a class that some process interned but that the leader cannot reach
// from its own class never enters its view, so a run with phantom classes
// gives the leader the same visible sets, count and rounds as a clean run.
func TestUnreachableClassNeverSeen(t *testing.T) {
	picked := []string{"cycle-9", "cycle-40-leader-7", "worstcase-13", "churn-9-seed1", "flood-delay-13"}
	for _, vn := range viewNets() {
		if !slices.Contains(picked, vn.name) {
			continue
		}
		for _, eng := range viewEngines {
			t.Run(vn.name+"/"+eng.name, func(t *testing.T) {
				net, leader := vn.mk(t)
				clean := protocolRun(t, net, leader, eng.run, true, nil)
				net, _ = vn.mk(t)
				phantom := 1
				if graph.NodeID(phantom) == leader {
					phantom = 0
				}
				dirty := protocolRun(t, net, leader, eng.run, true, func(procs []runtime.Process) {
					procs[phantom] = phantomProc{procs[phantom].(*proc)}
				})
				if dirty.count != clean.count || dirty.rounds != clean.rounds {
					t.Fatalf("with phantom classes: (count, rounds) = (%d, %d), clean run (%d, %d)",
						dirty.count, dirty.rounds, clean.count, clean.rounds)
				}
				if err := diffSets(dirty.sets, clean.sets); err != nil {
					t.Fatalf("phantom classes changed the leader's view: %v", err)
				}
			})
		}
	}
}
