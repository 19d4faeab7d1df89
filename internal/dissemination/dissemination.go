// Package dissemination implements k-token dissemination protocols over
// dynamic networks — the problem the paper contrasts counting against. With
// the model's unlimited bandwidth, flooding completes within the dynamic
// diameter D rounds; with the classic one-token-per-round restriction of
// Kuhn, Lynch and Oshman [9], dissemination slows down to Ω(n + k) style
// costs. The headline gap experiment runs flooding and the exact counter on
// the same worst-case network: dissemination finishes in D rounds while
// counting needs D + Ω(log |V|).
package dissemination

import (
	"fmt"
	"sort"

	"anondyn/internal/dynet"
	"anondyn/internal/runtime"
)

// Token identifies a disseminated token.
type Token int

// tokenSet is a set of tokens with a canonical sorted encoding.
type tokenSet map[Token]struct{}

func (s tokenSet) add(t Token) { s[t] = struct{}{} }

func (s tokenSet) sorted() []Token {
	out := make([]Token, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// key is the engines' ordering key for dissemination messages
// (runtime.Config.CanonKey): a hash of the token list. Receivers take the
// union of what they hear, so inbox order never matters. nil, and any
// message that is not a token list, maps to 0.
func key(m runtime.Message) uint64 {
	ts, ok := m.([]Token)
	if !ok {
		return 0
	}
	h := uint64(0x544f4b454e530000) // type tag
	for _, t := range ts {
		h = runtime.MixKey(h ^ uint64(t))
	}
	return h
}

// floodProc broadcasts its entire token set every round (unlimited
// bandwidth) and unions everything it hears.
type floodProc struct {
	tokens tokenSet
}

func (p *floodProc) Send(int) runtime.Message { return p.tokens.sorted() }

func (p *floodProc) Receive(_ int, msgs []runtime.Message) {
	for _, m := range msgs {
		if ts, ok := m.([]Token); ok {
			for _, t := range ts {
				p.tokens.add(t)
			}
		}
	}
}

// forwardProc broadcasts exactly one owned token per round — the
// token-forwarding restriction of [9]. It cycles through its owned tokens
// in sorted order, resuming the cycle as its set grows.
type forwardProc struct {
	tokens tokenSet
	cursor int
}

func (p *forwardProc) Send(int) runtime.Message {
	owned := p.tokens.sorted()
	if len(owned) == 0 {
		return nil
	}
	t := owned[p.cursor%len(owned)]
	p.cursor++
	return []Token{t}
}

func (p *forwardProc) Receive(_ int, msgs []runtime.Message) {
	for _, m := range msgs {
		if ts, ok := m.([]Token); ok {
			for _, t := range ts {
				p.tokens.add(t)
			}
		}
	}
}

// Mode selects the bandwidth regime.
type Mode int

const (
	// Unlimited lets every node broadcast its whole token set each round
	// (the paper's model).
	Unlimited Mode = iota + 1
	// OneTokenPerRound restricts each broadcast to a single token (the
	// token-forwarding model of [9]).
	OneTokenPerRound
)

// Result reports a dissemination run.
type Result struct {
	// Rounds is the number of rounds until every node held every token.
	Rounds int
	// Tokens is the number of distinct tokens disseminated.
	Tokens int
}

// Run disseminates the given initial token assignment (initial[i] lists the
// tokens node i starts with) over the dynamic network until every node
// holds every token, using the requested bandwidth mode and engine. It
// errors if dissemination does not complete within maxRounds.
func Run(net dynet.Dynamic, initial [][]Token, mode Mode, maxRounds int, run func(*runtime.Config) (int, error)) (Result, error) {
	n := net.N()
	if len(initial) != n {
		return Result{}, fmt.Errorf("dissemination: %d initial assignments for %d nodes", len(initial), n)
	}
	if mode != Unlimited && mode != OneTokenPerRound {
		return Result{}, fmt.Errorf("dissemination: unknown mode %d", mode)
	}
	universe := make(tokenSet)
	holders := make([]tokenSet, n)
	procs := make([]runtime.Process, n)
	for i := range initial {
		ts := make(tokenSet, len(initial[i]))
		for _, t := range initial[i] {
			ts.add(t)
			universe.add(t)
		}
		holders[i] = ts
		if mode == Unlimited {
			procs[i] = &floodProc{tokens: ts}
		} else {
			procs[i] = &forwardProc{tokens: ts}
		}
	}
	if len(universe) == 0 {
		return Result{}, fmt.Errorf("dissemination: no tokens to disseminate")
	}
	complete := func() bool {
		for _, h := range holders {
			if len(h) != len(universe) {
				return false
			}
		}
		return true
	}
	if complete() {
		return Result{Rounds: 0, Tokens: len(universe)}, nil
	}
	cfg := &runtime.Config{
		Net:       net,
		Procs:     procs,
		CanonKey:  key,
		MaxRounds: maxRounds,
		Stop:      func(int) bool { return complete() },
	}
	rounds, err := run(cfg)
	if err != nil {
		return Result{}, err
	}
	if !complete() {
		return Result{}, fmt.Errorf("dissemination: incomplete after %d rounds", rounds)
	}
	return Result{Rounds: rounds, Tokens: len(universe)}, nil
}

// SingleSource assigns k tokens to one source node and none elsewhere;
// convenience for flood-time experiments.
func SingleSource(n, src, k int) ([][]Token, error) {
	if src < 0 || src >= n {
		return nil, fmt.Errorf("dissemination: source %d out of range [0,%d)", src, n)
	}
	if k < 1 {
		return nil, fmt.Errorf("dissemination: need at least one token, got %d", k)
	}
	initial := make([][]Token, n)
	for t := 0; t < k; t++ {
		initial[src] = append(initial[src], Token(t))
	}
	return initial, nil
}
