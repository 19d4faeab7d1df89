package chainnet

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"anondyn/internal/kernel"
	"anondyn/internal/multigraph"
	"anondyn/internal/runtime"
)

// indexLimit is the longest node state the protocol carries as its
// History.Index(2), the capacity of an exact int64 index; a state's length
// is the round it is sent in. Past it, W nodes and relays carry states as
// History.Key strings, so runs and their transcripts go on. The leader's
// solver takes indexed rounds only, so the leader consumes no fact past it:
// it would need one only while its interval is still ambiguous, which takes
// about 2·10^18 nodes. A variable so tests can move the crossover.
var indexLimit = multigraph.MaxIndexedRounds

// indexed reports whether a state of the given length travels as its index.
func indexed(length int) bool { return length <= indexLimit }

// stateKey is the History.Key of the state with the given index and length.
func stateKey(index int64, length int) string {
	return multigraph.HistoryFromIndex(int(index), length, 2).Key()
}

// stateCount is one entry of a fact's multiset: Count neighbors were in the
// state whose History.Index(2) is State.
type stateCount struct {
	State int64
	Count int
}

// fact is one relay observation: at round Round, the relay carrying Label
// saw the given multiset of neighbor states. While the states are indexed
// (their length is the round), the multiset is States, sorted by index;
// past indexLimit it is Keys, counted by state key. Facts are the unit of
// forwarding; they carry no node identities. No process modifies a fact
// once its relay made it, so forwarding copies the struct and shares its
// States slice.
type fact struct {
	Round  int
	Label  int
	States []stateCount
	Keys   map[string]int
	// hash is the fact's content fingerprint, computed once by the relay
	// that makes the fact and carried along as it is forwarded.
	hash uint64
}

// newFact makes a fact and computes its fingerprint.
func newFact(round, label int, states []stateCount, keys map[string]int) fact {
	f := fact{Round: round, Label: label, States: states, Keys: keys}
	f.hash = f.fingerprint()
	return f
}

// key identifies a fact uniquely (one fact per (round, label)).
func (f fact) key() [2]int { return [2]int{f.Round, f.Label} }

// fingerprint hashes a fact's content. The entries are combined by a sum of
// per-entry hashes, which does not depend on the order of States or on
// map iteration order.
func (f fact) fingerprint() uint64 {
	var sum uint64
	for _, sc := range f.States {
		sum += runtime.MixKey(runtime.MixKey(uint64(sc.State)) ^ runtime.MixKey(uint64(sc.Count)))
	}
	for state, c := range f.Keys {
		sum += runtime.MixKey(runtime.StringKey(state) ^ runtime.MixKey(uint64(c)))
	}
	return runtime.MixKey((runtime.MixKey(uint64(f.Round)) ^ uint64(f.Label)) + sum)
}

// canonical renders a fact deterministically, with its states as
// History.Key strings in string order, whichever form the fact holds.
func (f fact) canonical() string {
	type entry struct {
		key   string
		count int
	}
	entries := make([]entry, 0, len(f.States)+len(f.Keys))
	for _, sc := range f.States {
		entries = append(entries, entry{stateKey(sc.State, f.Round), sc.Count})
	}
	for k, c := range f.Keys {
		entries = append(entries, entry{k, c})
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	var sb strings.Builder
	fmt.Fprintf(&sb, "f%d/%d{", f.Round, f.Label)
	for _, e := range entries {
		fmt.Fprintf(&sb, "[%s]x%d;", e.key, e.count)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Message types of the protocol.
type (
	// relayBeacon is what a relay broadcasts: its label (so W nodes can
	// record their label sets) and every fact it has produced.
	relayBeacon struct {
		Label int
		Facts []fact
	}
	// forwardMsg is what chain nodes (and the leader, vacuously)
	// broadcast: the union of facts heard so far.
	forwardMsg struct {
		Facts []fact
	}
	// stateMsg is what a W node broadcasts while its state is indexed:
	// the state's History.Index(2) and length. A W node sends a pointer
	// to one it owns and rewrites each Send (runtime.Message).
	stateMsg struct {
		Index int64
		Len   int
	}
	// keyMsg is what a W node broadcasts past indexLimit: its state's
	// History.Key.
	keyMsg struct {
		Key string
	}
)

// canonKey is the protocol's ordering key (runtime.Config.CanonKey), in
// RunCount and RecordTrace alike; it never formats a string. A *stateMsg
// keys by its state's rank in level order (shorter histories first, then
// by index): distinct states key apart, and, since the states of one round
// share a length, the engines deliver a relay the states it hears in
// ascending index order, which it counts without a sort. A keyMsg hashes
// its key; a relayBeacon or forwardMsg adds up the fingerprints its facts
// carry, so the key does not depend on the order of the facts.
// Equal messages get equal keys whoever sends them; nil, and any message
// that is not the protocol's, maps to 0.
//
// Ties — equal messages, or unequal ones whose fingerprints collide — are
// broken by sender id in both engines, and that order is harmless: no
// receiver's state depends on its inbox order. Relays count states, sorting
// what does not arrive sorted; W nodes OR label bits; and chain nodes and
// the leader key facts by (round, label), of which an honest relay makes
// exactly one.
func canonKey(m runtime.Message) uint64 {
	switch v := m.(type) {
	case *stateMsg:
		return levelStart[v.Len] + uint64(v.Index)
	case keyMsg:
		return runtime.MixKey(tagState ^ runtime.StringKey(v.Key))
	case relayBeacon:
		return runtime.MixKey((tagRelay ^ uint64(v.Label)) + sumFacts(v.Facts))
	case forwardMsg:
		return runtime.MixKey(tagForward + sumFacts(v.Facts))
	default:
		return 0
	}
}

// levelStart[L] is the level-order rank of the first history of length L,
// (3^L+1)/2: the empty history ranks 1, the three of length 1 rank 2–4,
// and every indexed state ranks below 2^63.
var levelStart = func() (start [multigraph.MaxIndexedRounds + 1]uint64) {
	pow := uint64(1)
	for l := range start {
		start[l] = (pow + 1) / 2
		pow *= 3
	}
	return start
}()

// Type tags keep the message kinds' fingerprints apart.
const (
	tagState   = 0x5354415445000000
	tagRelay   = 0x52454c4159000000
	tagForward = 0x464f525744000000
)

func sumFacts(facts []fact) uint64 {
	var sum uint64
	for i := range facts {
		sum += facts[i].hash
	}
	return sum
}

// canon is the text form of the protocol's messages (runtime.Config.Canon):
// the strings RecordTrace's transcripts record. A state prints as its
// History.Key in either form.
func canon(m runtime.Message) string {
	switch v := m.(type) {
	case nil:
		return ""
	case *stateMsg:
		return "w:" + stateKey(v.Index, v.Len)
	case keyMsg:
		return "w:" + v.Key
	case relayBeacon:
		return "r" + encodeFacts(v.Label, v.Facts)
	case forwardMsg:
		return "c" + encodeFacts(0, v.Facts)
	default:
		return runtime.DefaultCanon(m)
	}
}

func encodeFacts(label int, facts []fact) string {
	parts := make([]string, len(facts))
	for i, f := range facts {
		parts[i] = f.canonical()
	}
	sort.Strings(parts)
	return fmt.Sprintf("%d|%s", label, strings.Join(parts, ","))
}

// wProc is a counted node: it broadcasts its label-set history and learns
// its round-r label set from the relay beacons delivered in round r. While
// the history is indexed, the node keeps only its length n and its
// History.Index(2), extended in O(1) a round as 3·index + symbol; past
// indexLimit it keeps the history itself.
type wProc struct {
	n       int
	index   int64
	history multigraph.History // nil while indexed(n)
	out     stateMsg           // the reused broadcast while indexed(n)
}

func (p *wProc) Send(int) runtime.Message {
	if indexed(p.n) {
		p.out = stateMsg{Index: p.index, Len: p.n}
		return &p.out
	}
	return keyMsg{Key: p.history.Key()}
}

func (p *wProc) Receive(_ int, msgs []runtime.Message) {
	var ls multigraph.LabelSet
	for _, m := range msgs {
		if rb, ok := m.(relayBeacon); ok {
			ls |= multigraph.SetOf(rb.Label)
		}
	}
	switch {
	case indexed(p.n + 1):
		p.index = 3*p.index + int64(multigraph.SymbolIndex(ls))
	case indexed(p.n):
		p.history = append(multigraph.HistoryFromIndex(int(p.index), p.n, 2), ls)
	default:
		p.history = append(p.history, ls)
	}
	p.n++
}

// relayProc carries a fixed label. Each round it broadcasts its label and
// all facts produced so far; on receive it turns the heard W states into
// the fact for that round.
type relayProc struct {
	label int
	facts []fact
	heard []int64 // the round's heard state indices (scratch)
}

// Send shares the relay's fact list: Receive only appends past the
// receivers' length, and the capped slice keeps them from appending into it.
func (p *relayProc) Send(int) runtime.Message {
	return relayBeacon{Label: p.label, Facts: p.facts[:len(p.facts):len(p.facts)]}
}

func (p *relayProc) Receive(r int, msgs []runtime.Message) {
	if !indexed(r) {
		keys := make(map[string]int)
		for _, m := range msgs {
			if km, ok := m.(keyMsg); ok {
				keys[km.Key]++
			}
		}
		p.facts = append(p.facts, newFact(r, p.label, nil, keys))
		return
	}
	p.heard = p.heard[:0]
	for _, m := range msgs {
		if sm, ok := m.(*stateMsg); ok {
			p.heard = append(p.heard, sm.Index)
		}
	}
	p.facts = append(p.facts, newFact(r, p.label, countStates(p.heard), nil))
}

// countStates returns the multiset of the given state indices as
// (index, count) pairs in ascending index order. It sorts states in place,
// unless they are sorted already, as the engines deliver them (canonKey).
func countStates(states []int64) []stateCount {
	if !slices.IsSorted(states) {
		slices.Sort(states)
	}
	distinct := 0
	for i := range states {
		if i == 0 || states[i] != states[i-1] {
			distinct++
		}
	}
	out := make([]stateCount, 0, distinct)
	for i, s := range states {
		if i > 0 && s == states[i-1] {
			out[len(out)-1].Count++
		} else {
			out = append(out, stateCount{State: s, Count: 1})
		}
	}
	return out
}

// chainProc forwards the union of all facts it has heard.
type chainProc struct {
	facts map[[2]int]fact
}

func newChainProc() *chainProc { return &chainProc{facts: make(map[[2]int]fact)} }

func (p *chainProc) Send(int) runtime.Message {
	out := make([]fact, 0, len(p.facts))
	for _, f := range p.facts {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Round != out[j].Round {
			return out[i].Round < out[j].Round
		}
		return out[i].Label < out[j].Label
	})
	return forwardMsg{Facts: out}
}

func (p *chainProc) Receive(_ int, msgs []runtime.Message) {
	for _, m := range msgs {
		switch v := m.(type) {
		case relayBeacon:
			for _, f := range v.Facts {
				p.facts[f.key()] = f
			}
		case forwardMsg:
			for _, f := range v.Facts {
				p.facts[f.key()] = f
			}
		}
	}
}

// leaderProc accumulates facts, reassembles the (delayed) leader view, and
// solves for the set of consistent sizes after every round. Completed
// rounds are fed to an incremental solver, so each protocol round costs
// only the newest level of the state tree.
type leaderProc struct {
	facts   map[[2]int]fact
	solver  *kernel.IncrementalSolver
	entries []multigraph.IndexedObsEntry // a round's merged facts (scratch)
	count   int
	done    bool
}

func newLeaderProc() *leaderProc {
	return &leaderProc{
		facts:  make(map[[2]int]fact),
		solver: kernel.NewIncrementalSolver(),
	}
}

func (p *leaderProc) Send(int) runtime.Message { return nil }

func (p *leaderProc) Receive(_ int, msgs []runtime.Message) {
	for _, m := range msgs {
		switch v := m.(type) {
		case relayBeacon:
			for _, f := range v.Facts {
				p.facts[f.key()] = f
			}
		case forwardMsg:
			for _, f := range v.Facts {
				p.facts[f.key()] = f
			}
		}
	}
	if p.done {
		return
	}
	// Feed newly completed rounds (facts from both labels present) to the
	// incremental solver in order. The solver takes indexed facts only: a
	// key fact, past indexLimit, is never passed on as an empty
	// observation, and the leader stops consuming facts there.
	for {
		r := p.solver.Rounds()
		f1, ok1 := p.facts[[2]int{r, 1}]
		f2, ok2 := p.facts[[2]int{r, 2}]
		if !ok1 || !ok2 || !indexed(r) {
			return
		}
		p.entries = mergeStates(p.entries[:0], f1.States, f2.States)
		iv, err := p.solver.AddRoundIndexed(p.entries)
		if err != nil {
			// Malformed observations (not from honest relays), or a round
			// past the solver's index capacity: wait.
			return
		}
		if iv.Unique() {
			p.count = iv.MinSize
			p.done = true
			return
		}
	}
}

// mergeStates appends to dst the round's observation from the two relays'
// multisets, each sorted by state index, in the same order: one entry per
// state, with the label-1 relay's count as Count1 and the label-2 relay's
// as Count2.
func mergeStates(dst []multigraph.IndexedObsEntry, s1, s2 []stateCount) []multigraph.IndexedObsEntry {
	i, j := 0, 0
	for i < len(s1) || j < len(s2) {
		switch {
		case j == len(s2) || i < len(s1) && s1[i].State < s2[j].State:
			dst = append(dst, multigraph.IndexedObsEntry{State: s1[i].State, Count1: s1[i].Count})
			i++
		case i == len(s1) || s2[j].State < s1[i].State:
			dst = append(dst, multigraph.IndexedObsEntry{State: s2[j].State, Count2: s2[j].Count})
			j++
		default:
			dst = append(dst, multigraph.IndexedObsEntry{State: s1[i].State, Count1: s1[i].Count, Count2: s2[j].Count})
			i++
			j++
		}
	}
	return dst
}

// Output implements runtime.Outputter.
func (p *leaderProc) Output() (int, bool) { return p.count, p.done }

// CountResult reports a full protocol run.
type CountResult struct {
	// Count is the leader's output |W|.
	Count int
	// Rounds is the number of completed rounds until the leader
	// terminated.
	Rounds int
}

// newProcs places the protocol's processes on the network's nodes.
func newProcs(nw *Network) []runtime.Process {
	procs := make([]runtime.Process, nw.N())
	procs[nw.Leader] = newLeaderProc()
	for _, c := range nw.Chain {
		procs[c] = newChainProc()
	}
	for j, r := range nw.Relays {
		procs[r] = &relayProc{label: j + 1}
	}
	for _, w := range nw.W {
		procs[w] = &wProc{}
	}
	return procs
}

// RunCount executes the full-information protocol on the network with the
// given engine and returns the leader's count and termination round.
func RunCount(nw *Network, maxRounds int, run func(*runtime.Config) (int, error)) (CountResult, error) {
	cfg := &runtime.Config{
		Net:       nw.Net,
		Procs:     newProcs(nw),
		CanonKey:  canonKey,
		MaxRounds: maxRounds,
	}
	value, rounds, ok, err := runtime.RunUntilOutput(cfg, int(nw.Leader), run)
	if err != nil {
		return CountResult{}, err
	}
	if !ok {
		return CountResult{}, fmt.Errorf("chainnet: leader did not terminate within %d rounds", maxRounds)
	}
	return CountResult{Count: value, Rounds: rounds}, nil
}
