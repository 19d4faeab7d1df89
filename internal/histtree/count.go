package histtree

import (
	"fmt"
	"math/big"
	"slices"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// Runner is an execution engine; the alias keeps Count runnable on any of
// runtime's engines and interchangeable with counting.Runner values.
type Runner = runtime.Engine

// classMsg is the per-round broadcast: the sender's class and its id-free
// structural hash. The class alone determines the sender's view, which is
// the set of classes reachable from it along parent and red edges, so
// nothing else needs to travel.
type classMsg struct {
	cur  int32
	hash uint64
}

// canonKey orders inboxes by the structural hash of the sender's class —
// the engines' allocation-free uint64 canonical key (Config.CanonKey).
// Ties (hash collisions, or two members of the same class) are broken by
// the engines' stable sort on sender id; a receiver reduces its inbox to a
// sorted class multiset, so delivery order never affects the outcome.
// Non-protocol messages never occur in a Count run; they all map to key 0.
func canonKey(m runtime.Message) uint64 {
	if cm, ok := m.(*classMsg); ok {
		return cm.hash
	}
	return 0
}

// proc is a non-leader process: it tracks only its current class, and each
// round extends the tree with the class multiset it heard.
type proc struct {
	tree    *Tree
	cur     int32
	curHash uint64
	heard   []int32   // scratch: sender classes this round
	pairs   []RedEdge // scratch: the multiset passed to ExtendHash
	// out is the reused outgoing message, which runtime.Message's
	// lifetime rule allows. Receivers read it during the receive phase,
	// in which the owner's own Receive already moves cur, so it is
	// rewritten only in Send.
	out classMsg
}

func newProc(t *Tree, leader bool) proc {
	p := proc{tree: t, cur: t.Root(leader)}
	p.curHash = t.Hash(p.cur)
	return p
}

func (p *proc) Send(int) runtime.Message {
	p.out = classMsg{cur: p.cur, hash: p.curHash}
	return &p.out
}

// absorb performs the round's receive: intern the class whose parent is
// the current class and whose red edges are the class multiset heard.
func (p *proc) absorb(msgs []runtime.Message) {
	p.heard = p.heard[:0]
	for _, m := range msgs {
		if cm, ok := m.(*classMsg); ok {
			p.heard = append(p.heard, cm.cur)
		}
	}
	slices.Sort(p.heard)
	p.pairs = p.pairs[:0]
	for i := 0; i < len(p.heard); {
		j := i
		for j < len(p.heard) && p.heard[j] == p.heard[i] {
			j++
		}
		p.pairs = append(p.pairs, RedEdge{Class: p.heard[i], Mult: int32(j - i)})
		i = j
	}
	p.cur, p.curHash = p.tree.ExtendHash(p.cur, p.pairs)
}

func (p *proc) Receive(_ int, msgs []runtime.Message) {
	p.absorb(msgs)
}

// pairState classifies a level pair in the leader's current view.
type pairState int

const (
	// pairStable: every visible level-t class has exactly one visible
	// child — the pair looks stable and can be solved.
	pairStable pairState = iota
	// pairUnstable: some level-t class has two or more visible children.
	// Views only grow, so the pair is unstable forever.
	pairUnstable
	// pairIncomplete: some level-t class has no visible child yet; more
	// information must arrive before the pair can be classified.
	pairIncomplete
)

// pairCache memoizes the last classify/solve of one level pair. Both
// computations depend only on the classes visible at levels t and t+1 —
// sets that are append-only — and on immutable per-class structure, so
// (t, len(perLevel[t]), len(perLevel[t+1])) identifies the inputs exactly:
// while the candidate pair hasn't moved and no new class has surfaced at
// its levels, the previous verdict (and solved count) is reused verbatim.
// candidate() probes levels in ascending order ending at the level it
// reports on, so the single slot always holds the pair the next round
// probes first.
type pairCache struct {
	t           int
	tLen, t1Len int
	state       pairState
	solved      bool
	solvedN     int
	solvedOK    bool
}

// leaderProc is the leader: besides the shared process behavior it indexes
// visible classes by level, detects the earliest stable level pair, solves
// the red-edge cardinality equations, and applies a conservative
// acceptance rule before terminating with the count.
type leaderProc struct {
	proc
	// view is the tree's storage as of the leader's last walk: every class
	// the leader sees was interned before it was copied (see walk).
	view     store
	perLevel [][]int32 // visible class ids, grouped by level
	seen     []bool    // seen[id]: the leader sees class id
	own      []int32   // own[t] = the leader's class at level t

	// childOf/fcards are dense per-class-id scratch tables with generation
	// stamps: an entry is live only when its stamp equals the current
	// generation, so "clearing" is one counter increment instead of a map
	// clear, and lookups are array indexing instead of map probes. They
	// cover the ids up to those of the classified level (see classify).
	childOf  []int32  // scratch: level-t class -> unique child
	childGen []uint32 // stamp validating childOf entries
	chGen    uint32   // current childOf generation
	fcards   []frac   // scratch: int64 solve cardinalities
	fcGen    []uint32 // stamp validating fcards entries
	fcGenID  uint32   // current fcards generation
	queue    []int32  // scratch: BFS frontier (index-cursor, reused)
	stack    []int32  // scratch: walk frontier (reused)

	cards   map[int32]*big.Rat // scratch: big.Rat spill-path cardinalities
	ratPool []*big.Rat         // persistent pool backing cards values
	ratio   big.Rat            // scratch: per-edge mult ratio

	cache pairCache

	minUnstable int // levels below this are proven unstable forever

	haveCand    bool
	candT       int // candidate stable level
	candN       int // candidate count
	candPrefix  int // visible classes at levels <= candT+1 when adopted
	stableSince int // round index at which the candidate was adopted

	count int
	done  bool
}

func newLeaderProc(t *Tree) *leaderProc {
	l := &leaderProc{
		proc:  newProc(t, true),
		cards: make(map[int32]*big.Rat),
		cache: pairCache{t: -1},
	}
	l.own = append(l.own, l.cur)
	l.walk(l.cur)
	return l
}

// walk indexes the classes that became visible when the leader moved to
// class id. A view is exactly the set of classes reachable from its
// holder's class along parent and red edges (see the package comment), and
// that set is closed under both, so the walk descends only through classes
// the leader does not see yet: a round costs O(new classes + their red
// edges). The stack is explicit because the walk can run thousands of
// levels deep.
//
// The walk copies the tree's directory headers under the read lock and
// then reads without it, as classify and the solves do later, while
// sharded workers may be interning. That is safe: the leader reads only
// classes it sees, each interned no later than id (a parent and the
// classes its members heard are interned before the class), and id was
// interned before the write-lock release that precedes this read lock.
// Since then, writers have written only fresh slots and the child field of
// existing nodes, which the leader never reads.
func (l *leaderProc) walk(id int32) {
	l.tree.mu.RLock()
	l.view = l.tree.store
	l.tree.mu.RUnlock()
	l.seen = grow(l.seen, int(id)+1)
	stack := append(l.stack[:0], id)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if l.seen[id] {
			continue
		}
		l.seen[id] = true
		n := l.view.node(id)
		lv := int(n.level)
		for lv >= len(l.perLevel) {
			l.perLevel = append(l.perLevel, nil)
		}
		l.perLevel[lv] = append(l.perLevel[lv], id)
		if n.parent >= 0 {
			stack = append(stack, n.parent)
		}
		for _, e := range l.view.red(n) {
			stack = append(stack, e.Class)
		}
	}
	l.stack = stack
}

// grow returns s with at least n entries, extending it with zero values to
// at least twice its length when it is shorter. Tables indexed by class id
// gain hundreds of entries a round; doubling copies each table O(log n)
// times over a run, where one append per class would copy it at every
// 1.25x of growth.
func grow[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, max(n, 2*len(s))-len(s))...)
}

func (l *leaderProc) Receive(r int, msgs []runtime.Message) {
	if l.done {
		return
	}
	l.absorb(msgs)
	l.walk(l.cur)
	l.own = append(l.own, l.cur)
	l.evaluate(r)
}

func (l *leaderProc) Output() (int, bool) { return l.count, l.done }

// evaluate runs the termination rule after round r: find the earliest
// stable, solvable level pair and accept its count n̂ once (a) at least
// candT+1+2n̂ rounds have completed, and (b) the view restricted to levels
// <= candT+1 has not changed for n̂ consecutive rounds.
//
// Rationale: every class is flooded to the leader within n-1 rounds of its
// creation (1-interval connectivity), so a hidden class split below the
// candidate pair — the only way the candidate can be wrong — surfaces
// within n-1 rounds and resets the candidate. The rule is therefore sound
// whenever n <= 2n̂+1, i.e. whenever the accepted candidate accounts for
// at least half the network; the candidate derived from the true stable
// pair (which exists at level <= n-2) always does, with n̂ = n. Both
// thresholds are <= 3n+O(1) when the candidate is true, which is the O(n)
// termination the slope tests assert. The full adversarial termination
// analysis of arXiv:2204.02128 §4 is beyond this reproduction; the
// histtree-count check oracle cross-validates the rule against ground
// truth on randomized ℳ(DBL)₂ schedules.
func (l *leaderProc) evaluate(r int) {
	t, n, ok := l.candidate()
	if !ok {
		l.haveCand = false
		return
	}
	prefix := 0
	for lv := 0; lv <= t+1 && lv < len(l.perLevel); lv++ {
		prefix += len(l.perLevel[lv])
	}
	if !l.haveCand || t != l.candT || n != l.candN || prefix != l.candPrefix {
		l.haveCand = true
		l.candT, l.candN, l.candPrefix = t, n, prefix
		l.stableSince = r
	}
	if r+1 >= t+1+2*n && r-l.stableSince+1 >= n {
		l.count, l.done = n, true
	}
}

// candidate returns the earliest level pair that is stable and solvable in
// the current view, with its solved count.
func (l *leaderProc) candidate() (t, n int, ok bool) {
	for t := l.minUnstable; t+1 < len(l.perLevel); t++ {
		switch l.classify(t) {
		case pairUnstable:
			l.minUnstable = t + 1
		case pairIncomplete:
			return 0, 0, false
		case pairStable:
			if n, ok := l.solve(t); ok {
				return t, n, true
			}
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// classify inspects the pair (t, t+1), filling childOf when the verdict is
// not cached. A cache hit leaves childOf untouched: its contents still
// describe the cached pair, because no class has appeared at either level
// since it was filled.
func (l *leaderProc) classify(t int) pairState {
	if l.cache.t == t && l.cache.tLen == len(l.perLevel[t]) && l.cache.t1Len == len(l.perLevel[t+1]) {
		return l.cache.state
	}
	l.cache = pairCache{t: t, tLen: len(l.perLevel[t]), t1Len: len(l.perLevel[t+1])}
	// The tables are indexed by level-t ids only: on a long run a small
	// prefix of the ids, since the candidate pair lags far behind the
	// newest level.
	size := int(slices.Max(l.perLevel[t])) + 1
	l.childOf = grow(l.childOf, size)
	l.childGen = grow(l.childGen, size)
	l.chGen++
	st := pairStable
	for _, id := range l.perLevel[t+1] {
		p := l.view.node(id).parent
		if l.childGen[p] == l.chGen && l.childOf[p] != id {
			st = pairUnstable
			break
		}
		l.childOf[p] = id
		l.childGen[p] = l.chGen
	}
	if st == pairStable {
		for _, id := range l.perLevel[t] {
			if l.childGen[id] != l.chGen {
				st = pairIncomplete
				break
			}
		}
	}
	l.cache.state = st
	return st
}

// Count runs the history-tree counting protocol on net with the given
// leader and returns the exact node count and the rounds used. The network
// must be 1-interval connected over the execution: the engine checks each
// round it runs and fails with a *dynet.ConnectivityError at the first
// disconnected one. Termination is O(n) rounds — at most ~3n — on every
// such network for which the conservative acceptance rule (see evaluate)
// applies, which includes all families exercised in this repository.
func Count(net dynet.Dynamic, leader graph.NodeID, maxRounds int, run Runner) (count, rounds int, err error) {
	n := net.N()
	if int(leader) < 0 || int(leader) >= n {
		return 0, 0, fmt.Errorf("histtree: leader %d out of range [0,%d)", leader, n)
	}
	if maxRounds < 1 {
		return 0, 0, fmt.Errorf("histtree: maxRounds must be >= 1, got %d", maxRounds)
	}
	cfg := &runtime.Config{
		Net:               net,
		Procs:             newProcs(n, leader),
		CanonKey:          canonKey,
		MaxRounds:         maxRounds,
		IntervalConnected: true,
	}
	value, rounds, ok, err := runtime.RunUntilOutput(cfg, int(leader), run)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, rounds, fmt.Errorf("histtree: leader did not terminate within %d rounds", maxRounds)
	}
	return value, rounds, nil
}

// newProcs returns one process per node, all on one fresh tree; the
// leader's is a *leaderProc.
func newProcs(n int, leader graph.NodeID) []runtime.Process {
	tree := New()
	procs := make([]runtime.Process, n)
	for i := range procs {
		if graph.NodeID(i) == leader {
			procs[i] = newLeaderProc(tree)
		} else {
			p := newProc(tree, false)
			procs[i] = &p
		}
	}
	return procs
}
