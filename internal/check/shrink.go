package check

import (
	"anondyn/internal/core"
	"anondyn/internal/multigraph"
)

// Shrink greedily minimizes a failing instance: it repeatedly proposes
// structurally smaller candidates — fewer rounds first, then fewer nodes,
// then simpler labels, then a shorter chain — and moves to the first
// candidate on which the check still fails, until no candidate fails or the
// step budget is spent. The candidate order is deterministic, so a replayed
// seed shrinks to the same instance. It returns the minimized instance and
// the number of candidate evaluations spent.
func Shrink(inst *Instance, sys *System, check func(*Instance, *System) error, maxSteps int) (*Instance, int) {
	if maxSteps <= 0 {
		maxSteps = DefaultShrinkBudget
	}
	cur := inst
	steps := 0
	for steps < maxSteps {
		improved := false
		for _, cand := range shrinkCandidates(cur) {
			steps++
			if check(cand, sys) != nil {
				cur = cand
				improved = true
				break
			}
			if steps >= maxSteps {
				break
			}
		}
		if !improved {
			break
		}
	}
	return cur, steps
}

// DefaultShrinkBudget caps the candidate evaluations per failure. Schedules
// here are small, so a few hundred steps reach a local minimum.
const DefaultShrinkBudget = 500

// shrinkCandidates proposes the next-smaller instances in preference order.
// Pair instances (Twin set) shrink by rebuilding the Lemma-5 construction
// with smaller parameters — the pair's structure is derived, so arbitrary
// label surgery would just break its invariants rather than minimize a
// counterexample. Schedule instances shrink freely.
func shrinkCandidates(inst *Instance) []*Instance {
	var out []*Instance
	add := func(cand *Instance, err error) {
		if err == nil && cand != nil {
			out = append(out, cand)
		}
	}
	if inst.Fam != nil {
		return shrinkFamilyCandidates(inst)
	}
	if inst.Twin != nil {
		n, r, k := inst.M.W(), inst.EqRounds, inst.M.K()
		if r > 1 {
			add(buildPairK(n, r-1, k, inst.Delay))
		}
		for _, smaller := range []int{n / 2, n - 1} {
			if smaller >= 1 && smaller < n && r <= core.MaxIndistinguishableRoundsK(smaller, k) {
				add(buildPairK(smaller, r, k, inst.Delay))
			}
		}
		if inst.Delay > 0 {
			add(buildPairK(n, r, k, 0))
		}
		return out
	}
	m := inst.M
	// Fewer rounds.
	if m.Horizon() > 1 {
		if tm, err := m.Truncate(m.Horizon() - 1); err == nil {
			add(&Instance{M: tm, Delay: inst.Delay}, nil)
		}
	}
	// Fewer nodes: drop each node in turn.
	if m.W() > 1 {
		labels := scheduleOf(m)
		for v := 0; v < m.W(); v++ {
			rest := make([][]multigraph.LabelSet, 0, m.W()-1)
			rest = append(rest, labels[:v]...)
			rest = append(rest, labels[v+1:]...)
			nm, err := multigraph.New(m.K(), rest)
			add(&Instance{M: nm, Delay: inst.Delay}, err)
		}
	}
	// Simpler labels: rewrite each non-{1} entry to {1}.
	one := multigraph.SetOf(1)
	for v := 0; v < m.W(); v++ {
		for r := 0; r < m.Horizon(); r++ {
			s, err := m.LabelsAt(v, r)
			if err != nil || s == one {
				continue
			}
			labels := scheduleOf(m)
			labels[v][r] = one
			nm, err := multigraph.New(m.K(), labels)
			add(&Instance{M: nm, Delay: inst.Delay}, err)
		}
	}
	// Shorter chain.
	if inst.Delay > 0 {
		add(&Instance{M: m, Delay: inst.Delay - 1}, nil)
	}
	return out
}

// shrinkFamilyCandidates proposes smaller family cases: fewer verified
// rounds first, then fewer nodes (clamping the churn core), then smaller
// windows/dwells, then zero extra-edge probability. The network is derived
// from the parameters, so shrinking rebuilds rather than mutating snapshots.
func shrinkFamilyCandidates(inst *Instance) []*Instance {
	f := inst.Fam
	var out []*Instance
	propose := func(mut func(c *FamilyCase)) {
		c := *f
		mut(&c)
		if c.Core > c.N {
			c.Core = c.N
		}
		out = append(out, &Instance{M: inst.M, Fam: &c})
	}
	if f.Rounds > 1 {
		propose(func(c *FamilyCase) { c.Rounds = f.Rounds / 2 })
		propose(func(c *FamilyCase) { c.Rounds = f.Rounds - 1 })
	}
	for _, smaller := range []int{f.N / 2, f.N - 1} {
		if smaller >= 1 && smaller < f.N {
			propose(func(c *FamilyCase) { c.N = smaller })
		}
	}
	if f.Kind == "tinterval" && f.T > 1 {
		propose(func(c *FamilyCase) { c.T = f.T - 1 })
	}
	if f.Kind == "churn" {
		if f.Dwell > 1 {
			propose(func(c *FamilyCase) { c.Dwell = f.Dwell - 1 })
		}
		if f.Core > 1 {
			propose(func(c *FamilyCase) { c.Core = f.Core - 1 })
		}
	}
	if f.P > 0 {
		propose(func(c *FamilyCase) { c.P = 0 })
	}
	return out
}
