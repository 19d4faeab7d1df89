package counting

import (
	"fmt"
	"sort"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// LimitedIDCount measures ID-based counting when the per-round broadcast is
// capped at `cap` identifiers — the limited-bandwidth regime of the related
// work ([10]: with IDs and limited bandwidth, counting time is a function
// of n even at constant diameter). Each node broadcasts the cap-many
// smallest IDs it knows, rotating through its known set across rounds so
// every ID is eventually forwarded.
//
// With limited bandwidth the unlimited model's growth lemma fails, so the
// leader has no sound local termination rule; the driver instead measures,
// with ground-truth access, the first round at which the leader's known
// set is complete. The contrast with IDCount (completion within the
// dynamic-diameter order) is the bandwidth analogue of the paper's
// anonymity gap.
type limitedIDProc struct {
	id     int
	cap    int
	known  map[int]struct{}
	cursor int
}

func newLimitedIDProc(id, cap int) *limitedIDProc {
	return &limitedIDProc{id: id, cap: cap, known: map[int]struct{}{id: {}}}
}

func (p *limitedIDProc) sorted() []int {
	out := make([]int, 0, len(p.known))
	for id := range p.known {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func (p *limitedIDProc) Send(int) runtime.Message {
	owned := p.sorted()
	if len(owned) <= p.cap {
		return idSetMsg(owned)
	}
	// Rotate a window of cap IDs through the known set.
	out := make([]int, 0, p.cap)
	for i := 0; i < p.cap; i++ {
		out = append(out, owned[(p.cursor+i)%len(owned)])
	}
	p.cursor = (p.cursor + p.cap) % len(owned)
	return idSetMsg(out)
}

func (p *limitedIDProc) Receive(_ int, msgs []runtime.Message) {
	for _, m := range msgs {
		if ids, ok := m.(idSetMsg); ok {
			for _, id := range ids {
				p.known[id] = struct{}{}
			}
		}
	}
}

// LimitedIDResult reports a limited-bandwidth run.
type LimitedIDResult struct {
	// CompleteAt is the first completed round at which the leader knew
	// every ID (1-based), or 0 if never within the budget.
	CompleteAt int
	// Rounds is the number of rounds executed.
	Rounds int
}

// LimitedIDCount floods IDs under a per-message cap and reports when the
// leader's knowledge became complete (measured by the driver, since the
// leader itself cannot detect completion soundly in this regime).
func LimitedIDCount(net dynet.Dynamic, leader graph.NodeID, cap, maxRounds int, run Runner) (LimitedIDResult, error) {
	n := net.N()
	if int(leader) < 0 || int(leader) >= n {
		return LimitedIDResult{}, fmt.Errorf("counting: leader %d out of range [0,%d)", leader, n)
	}
	if cap < 1 {
		return LimitedIDResult{}, fmt.Errorf("counting: cap must be >= 1, got %d", cap)
	}
	if maxRounds < 1 {
		return LimitedIDResult{}, fmt.Errorf("counting: maxRounds must be >= 1, got %d", maxRounds)
	}
	procs := make([]runtime.Process, n)
	var lp *limitedIDProc
	for i := range procs {
		p := newLimitedIDProc(i, cap)
		if graph.NodeID(i) == leader {
			lp = p
		}
		procs[i] = p
	}
	completeAt := 0
	cfg := &runtime.Config{
		Net:       net,
		Procs:     procs,
		CanonKey:  key,
		MaxRounds: maxRounds,
		Stop: func(r int) bool {
			if completeAt == 0 && len(lp.known) == n {
				completeAt = r + 1
			}
			return completeAt != 0
		},
	}
	rounds, err := run(cfg)
	if err != nil {
		return LimitedIDResult{}, err
	}
	return LimitedIDResult{CompleteAt: completeAt, Rounds: rounds}, nil
}
