package chainnet

import (
	"fmt"
	"sort"
	"strings"

	"anondyn/internal/kernel"
	"anondyn/internal/multigraph"
	"anondyn/internal/runtime"
)

// fact is one relay observation: at round Round, the relay carrying Label
// saw the given multiset of neighbor states (state key → count). Facts are
// the unit of forwarding; they carry no node identities.
type fact struct {
	Round  int
	Label  int
	States map[string]int
	// hash is the fact's content fingerprint (factHash), computed once by
	// the relay that makes the fact and carried along as it is forwarded.
	hash uint64
}

// newFact makes a fact and computes its fingerprint.
func newFact(round, label int, states map[string]int) fact {
	return fact{Round: round, Label: label, States: states, hash: factHash(round, label, states)}
}

// key identifies a fact uniquely (one fact per (round, label)).
func (f fact) key() [2]int { return [2]int{f.Round, f.Label} }

// canonical renders a fact deterministically.
func (f fact) canonical() string {
	keys := make([]string, 0, len(f.States))
	for k := range f.States {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "f%d/%d{", f.Round, f.Label)
	for _, k := range keys {
		fmt.Fprintf(&sb, "[%s]x%d;", k, f.States[k])
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
	// stateMsg is what a W node broadcasts: its current state key.
	stateMsg struct {
		StateKey string
	}
)

// canonKey is the protocol's ordering key (runtime.Config.CanonKey), in
// RunCount and RecordTrace alike: a content fingerprint that never formats
// a string. A stateMsg hashes its state key; a relayBeacon or forwardMsg
// adds up the fingerprints its facts carry, so the key does not depend on
// the order of the facts, and a fact's own fingerprint does not depend on
// the order of its States map.
// Equal messages get equal keys whoever sends them; nil, and any message
// that is not the protocol's, maps to 0.
//
// Ties — equal messages, or unequal ones whose fingerprints collide — are
// broken by sender id in both engines, and that order is harmless: no
// receiver reads its inbox order. Relays count states into a map, W nodes
// OR label bits, and chain nodes and the leader key facts by (round,
// label), of which an honest relay makes exactly one.
func canonKey(m runtime.Message) uint64 {
	switch v := m.(type) {
	case stateMsg:
		return runtime.MixKey(tagState ^ runtime.StringKey(v.StateKey))
	case relayBeacon:
		return runtime.MixKey((tagRelay ^ uint64(v.Label)) + sumFacts(v.Facts))
	case forwardMsg:
		return runtime.MixKey(tagForward + sumFacts(v.Facts))
	default:
		return 0
	}
}

// Type tags keep the three message kinds' fingerprints apart.
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

// factHash fingerprints a fact. The States entries are combined by a sum
// of per-entry hashes, which is independent of map iteration order, so no
// sort is needed.
func factHash(round, label int, states map[string]int) uint64 {
	var sum uint64
	for state, c := range states {
		sum += runtime.MixKey(runtime.StringKey(state) ^ runtime.MixKey(uint64(c)))
	}
	return runtime.MixKey((runtime.MixKey(uint64(round)) ^ uint64(label)) + sum)
}

// canon is the text form of the protocol's messages (runtime.Config.Canon):
// the strings RecordTrace's transcripts record.
func canon(m runtime.Message) string {
	switch v := m.(type) {
	case nil:
		return ""
	case stateMsg:
		return "w:" + v.StateKey
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
// its round-r label set from the relay beacons delivered in round r.
type wProc struct {
	history multigraph.History
}

func (p *wProc) Send(int) runtime.Message {
	return stateMsg{StateKey: p.history.Key()}
}

func (p *wProc) Receive(_ int, msgs []runtime.Message) {
	var ls multigraph.LabelSet
	for _, m := range msgs {
		if rb, ok := m.(relayBeacon); ok {
			ls |= multigraph.SetOf(rb.Label)
		}
	}
	p.history = p.history.Extend(ls)
}

// relayProc carries a fixed label. Each round it broadcasts its label and
// all facts produced so far; on receive it turns the heard W states into
// the fact for that round.
type relayProc struct {
	label int
	facts []fact
}

func (p *relayProc) Send(int) runtime.Message {
	out := make([]fact, len(p.facts))
	copy(out, p.facts)
	return relayBeacon{Label: p.label, Facts: out}
}

func (p *relayProc) Receive(r int, msgs []runtime.Message) {
	states := make(map[string]int)
	for _, m := range msgs {
		if sm, ok := m.(stateMsg); ok {
			states[sm.StateKey]++
		}
	}
	p.facts = append(p.facts, newFact(r, p.label, states))
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
	facts  map[[2]int]fact
	solver *kernel.IncrementalSolver
	count  int
	done   bool
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
	// incremental solver in order.
	for {
		r := p.solver.Rounds()
		f1, ok1 := p.facts[[2]int{r, 1}]
		f2, ok2 := p.facts[[2]int{r, 2}]
		if !ok1 || !ok2 {
			return
		}
		obs := make(multigraph.Observation)
		for state, c := range f1.States {
			obs[multigraph.ObsKey{Label: 1, StateKey: state}] = c
		}
		for state, c := range f2.States {
			obs[multigraph.ObsKey{Label: 2, StateKey: state}] = c
		}
		iv, err := p.solver.AddRound(obs)
		if err != nil {
			return // malformed observations; wait (cannot happen with honest relays)
		}
		if iv.Unique() {
			p.count = iv.MinSize
			p.done = true
			return
		}
	}
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
