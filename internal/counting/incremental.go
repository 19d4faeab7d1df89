package counting

import (
	"fmt"
	"math"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// IncrementalCount implements the guess-and-verify Incremental Counting
// scheme of Chakraborty, Milani and Mosteiro ("A Faster Exact-Counting
// Protocol for Anonymous Dynamic Networks", arXiv:1603.05459): the first
// counting algorithm for anonymous 1-interval-connected networks with
// polynomially many rounds, the practical midpoint between the paper's
// exponential leader-state counter and the linear history-tree algorithm.
//
// The leader drives candidate sizes k = 1, 2, 3, …. Each guess runs two
// deterministically scheduled subphases every process derives from the
// round number alone:
//
//   - drain, 3(k+1)² rounds: every non-leader holds a potential ρ
//     (initially 1) and each round broadcasts the share s = ρ/(k+1),
//     keeping ρ − d·s where d is its current degree; the leader absorbs
//     every share it hears into its mass m. Potential is conserved, so m
//     climbs toward n−1 exactly. A process whose degree ever exceeds k has
//     more neighbors than a size-(k+1) network allows, and a process whose
//     residual still exceeds 1/(8(k+1)) at the end of the drain has not
//     finished draining; either observation raises an alarm tagged with k.
//   - verdict, k+1 rounds: shares freeze and alarms flood (alarm tags ride
//     every message of both subphases and are latched to the maximum).
//
// At the end of guess k's verdict the leader accepts n̂ = round(m)+1 iff no
// alarm tagged ≥ k arrived, m is within ¼ of an integer, and n̂ ≤ k+1;
// otherwise every process resets its potential to 1 and guess k+1 restarts
// the drain from scratch. The restart is load-bearing: during a failed
// guess a node with degree d > k+1 over-subscribes its shares and its
// potential goes negative, so the leader's (one-way) mass absorbs garbage;
// a process that observes d > k therefore also freezes its sharing for the
// rest of the guess, and nothing from a failed guess pollutes the next. The
// acceptance is sound whenever alarms reach the leader within the k+1
// verdict rounds — guaranteed once k ≥ n−2 by 1-interval connectivity, and
// on every family in this repository's suite much earlier; the full
// adversarial analysis of arXiv:1603.05459 sets far larger (but still
// polynomial) subphase lengths and is beyond this reproduction. The
// measured round counts (see the zoo campaign in EXPERIMENTS.md) grow
// polynomially, vs linear for histtree.Count — the comparison the zoo
// figure freezes.

// incMsg is the per-round broadcast of the incremental counter. Each
// process sends a pointer to one it owns and rewrites each Send.
type incMsg struct {
	// Share is the potential share offered to each neighbor this round.
	Share float64
	// AlarmK is the largest guess index at which the sender (or anyone it
	// heard) observed a violation; -1 when none.
	AlarmK int
}

// incClock derives (guess, subphase) from consecutive round numbers.
type incClock struct {
	k   int // current guess, starting at 1
	off int // rounds completed within the current guess
}

func newIncClock() incClock { return incClock{k: 1} }

func incDrainLen(k int) int   { return 3 * (k + 1) * (k + 1) }
func incVerdictLen(k int) int { return k + 1 }

// phase reports the current guess, whether the round is a drain round, and
// whether it is the guess's final (deciding) round.
func (c *incClock) phase() (k int, drain, last bool) {
	return c.k, c.off < incDrainLen(c.k), c.off == incDrainLen(c.k)+incVerdictLen(c.k)-1
}

// tick advances to the next round, rolling into the next guess at the end
// of the verdict subphase; it reports whether a new guess just began (the
// moment every process resets its drain state).
func (c *incClock) tick() bool {
	c.off++
	if c.off == incDrainLen(c.k)+incVerdictLen(c.k) {
		c.k++
		c.off = 0
		return true
	}
	return false
}

// incProc is a non-leader process of the incremental counter.
type incProc struct {
	clock  incClock
	rho    float64
	share  float64 // the share broadcast this round, to settle in Receive
	alarmK int
	bad    bool      // degree violation seen in the current guess: freeze sharing
	shares []float64 // scratch: the shares heard this round
	out    incMsg    // the reused broadcast, written only in Send (runtime.Message)
}

func newIncProc() *incProc { return &incProc{clock: newIncClock(), rho: 1, alarmK: -1} }

func (p *incProc) Send(int) runtime.Message {
	k, drain, _ := p.clock.phase()
	p.share = 0
	if drain && !p.bad {
		p.share = p.rho / float64(k+1)
	}
	p.out = incMsg{Share: p.share, AlarmK: p.alarmK}
	return &p.out
}

func (p *incProc) Receive(_ int, msgs []runtime.Message) {
	k, drain, _ := p.clock.phase()
	p.shares = p.shares[:0]
	for _, m := range msgs {
		im, ok := m.(*incMsg)
		if !ok {
			continue
		}
		p.shares = append(p.shares, im.Share)
		if im.AlarmK > p.alarmK {
			p.alarmK = im.AlarmK
		}
	}
	d := len(p.shares)
	p.rho += sumAscending(p.shares) - float64(d)*p.share
	if d > k {
		p.bad = true
		if k > p.alarmK {
			p.alarmK = k
		}
	}
	if drain && p.clock.off == incDrainLen(k)-1 {
		// End of the drain: an unfinished residual taints this guess.
		if math.Abs(p.rho) >= 1/(8*float64(k+1)) && k > p.alarmK {
			p.alarmK = k
		}
	}
	if p.clock.tick() {
		p.rho = 1
		p.bad = false
	}
}

// incLeader absorbs mass and decides at the end of each verdict subphase.
type incLeader struct {
	clock  incClock
	mass   float64
	alarmK int
	count  int
	done   bool
	shares []float64 // scratch: the shares heard this round
	out    incMsg    // the reused broadcast, written only in Send (runtime.Message)
}

func newIncLeader() *incLeader { return &incLeader{clock: newIncClock(), alarmK: -1} }

func (l *incLeader) Send(int) runtime.Message {
	l.out = incMsg{Share: 0, AlarmK: l.alarmK}
	return &l.out
}

func (l *incLeader) Receive(_ int, msgs []runtime.Message) {
	if l.done {
		return
	}
	k, _, last := l.clock.phase()
	l.shares = l.shares[:0]
	for _, m := range msgs {
		im, ok := m.(*incMsg)
		if !ok {
			continue
		}
		l.shares = append(l.shares, im.Share)
		if im.AlarmK > l.alarmK {
			l.alarmK = im.AlarmK
		}
	}
	l.mass += sumAscending(l.shares)
	if d := len(l.shares); d > k && k > l.alarmK {
		l.alarmK = k
	}
	if last {
		cand := math.Round(l.mass)
		if l.alarmK < k && math.Abs(l.mass-cand) <= 0.25 && int(cand) <= k {
			l.count = int(cand) + 1
			l.done = true
		}
	}
	if l.clock.tick() {
		l.mass = 0
	}
}

func (l *incLeader) Output() (int, bool) { return l.count, l.done }

// IncrementalCount runs the incremental counter and returns the exact node
// count and the rounds used. The network must be 1-interval connected over
// the execution: the engine checks each round it runs and fails with a
// *dynet.ConnectivityError at the first disconnected one. The round budget
// must cover the full guess schedule up to the true size —
// IncrementalRounds(n) bounds the budget needed for a size-n network whose
// drains complete on schedule.
func IncrementalCount(net dynet.Dynamic, leader graph.NodeID, maxRounds int, run Runner) (count, rounds int, err error) {
	n := net.N()
	if int(leader) < 0 || int(leader) >= n {
		return 0, 0, fmt.Errorf("counting: leader %d out of range [0,%d)", leader, n)
	}
	if maxRounds < 1 {
		return 0, 0, fmt.Errorf("counting: maxRounds must be >= 1, got %d", maxRounds)
	}
	procs := make([]runtime.Process, n)
	for i := range procs {
		if graph.NodeID(i) == leader {
			procs[i] = newIncLeader()
		} else {
			procs[i] = newIncProc()
		}
	}
	cfg := &runtime.Config{Net: net, Procs: procs, CanonKey: key, MaxRounds: maxRounds, IntervalConnected: true}
	value, rounds, ok, err := runtime.RunUntilOutput(cfg, int(leader), run)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, rounds, fmt.Errorf("counting: incremental counter did not terminate within %d rounds", maxRounds)
	}
	return value, rounds, nil
}

// IncrementalRounds returns the round budget consumed by guesses 1..k:
// a network of size n whose drains complete on schedule terminates within
// IncrementalRounds(n-1) rounds (n >= 2); slow-mixing topologies need
// larger guesses because the τ(k) = 3(k+1)² drain must outlast the mixing
// time. Measured accepting guesses: the fast-mixing worst-case 𝒢(PD)₂
// family stays within k ≤ 2.2·n through |V| = 43, while static cycles grow
// roughly quadratically (n=12→k=27, n=16→54, n=20→92, n=24→141) and
// outgrow an IncrementalRounds(3n) budget from n ≈ 16. Useful for sizing
// maxRounds.
func IncrementalRounds(k int) int {
	total := 0
	for g := 1; g <= k; g++ {
		total += incDrainLen(g) + incVerdictLen(g)
	}
	return total
}
