package check

import (
	"fmt"
	"maps"
	"math/big"
	"math/rand"

	"anondyn/internal/chainnet"
	"anondyn/internal/core"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/kernel"
	"anondyn/internal/linalg"
	"anondyn/internal/multigraph"
)

// Oracle is one registered differential or metamorphic property: a generator
// for its instance family and a check that must hold on every generated
// instance. Mutants are deliberately broken variants of the layers the
// oracle claims to cross-check; the mutation smoke test requires the oracle
// to catch every one of them, so an oracle that silently checks nothing
// cannot ship.
type Oracle struct {
	// Name selects the oracle on the command line and in replay commands.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Gen draws one instance of the oracle's family from the seeded rng.
	Gen func(rng *rand.Rand) (*Instance, error)
	// Check verifies the property on inst, routing the implementations
	// under test through sys. A nil return means the property held.
	Check func(inst *Instance, sys *System) error
	// Mutants are the seeded faults this oracle must detect.
	Mutants []Mutant
}

// Mutant is a seeded fault: either a broken-system variant (Sys rewires one
// System hook) or an instance corruption (Corrupt perturbs the generated
// instance). Exactly one of the two is set.
type Mutant struct {
	Name    string
	Sys     func(sys *System)
	Corrupt func(inst *Instance, rng *rand.Rand)
}

// Oracles returns the full registry in deterministic order.
func Oracles() []*Oracle {
	return []*Oracle{
		intervalOracle(),
		eliminationOracle(),
		closedFormOracle(),
		pairOracle(),
		transformOracle(),
		relabelOracle(),
		messageOracle(),
		monotoneOracle(),
		enumKOracle(),
		shardedEngineOracle(),
		histTreeCountOracle(),
		tIntervalWindowOracle(),
		churnConserveOracle(),
		mdblkPairOracle(),
		degreeOracleCountOracle(),
	}
}

// OracleByName resolves one registered oracle.
func OracleByName(name string) (*Oracle, error) {
	for _, o := range Oracles() {
		if o.Name == name {
			return o, nil
		}
	}
	return nil, fmt.Errorf("check: unknown oracle %q", name)
}

// intervalOracle cross-checks the incremental solver, fed by the
// multigraph's ObservationStream, against the batch solver on every prefix
// of a random schedule, after checking that each streamed round strictly
// ascends by state and matches the LeaderView the batch solver reads. It also verifies the structural facts
// the leader's termination rule rests on: intervals nest as rounds
// accumulate, always contain the true size, and both endpoints are
// realizable as concrete multigraphs reproducing the observed view (the
// constructive content of Lemma 5).
func intervalOracle() *Oracle {
	return &Oracle{
		Name: "interval",
		Doc:  "incremental solver ≡ batch solver; intervals nest, contain the truth, and have realizable endpoints",
		Gen: func(rng *rand.Rand) (*Instance, error) {
			return genSchedule(rng, 60, 5)
		},
		Check: func(inst *Instance, sys *System) error {
			m := inst.M
			stream, err := m.NewObservationStream()
			if err != nil {
				return err
			}
			inc := sys.NewIncremental()
			prev := kernel.Interval{Unbounded: true}
			var last kernel.Interval
			for r := 1; r <= m.Horizon(); r++ {
				entries, err := stream.Next()
				if err != nil {
					return err
				}
				for i := 1; i < len(entries); i++ {
					if entries[i].State <= entries[i-1].State {
						return fmt.Errorf("round %d: stream emits state %d after %d, want strictly ascending states", r, entries[i].State, entries[i-1].State)
					}
				}
				view, err := m.LeaderView(r)
				if err != nil {
					return err
				}
				if obs := keyedObservation(entries, r-1); !maps.Equal(obs, view[r-1]) {
					return fmt.Errorf("round %d: stream observes %v, LeaderView %v", r, obs, view[r-1])
				}
				got, err := inc.AddRoundIndexed(entries)
				if err != nil {
					return fmt.Errorf("incremental round %d: %w", r, err)
				}
				want, err := sys.Solve(view)
				if err != nil {
					return fmt.Errorf("batch round %d: %w", r, err)
				}
				if got != want {
					return fmt.Errorf("round %d: incremental %v != batch %v", r, got, want)
				}
				if want.Empty || want.Unbounded {
					return fmt.Errorf("round %d: genuine view solved to %v", r, want)
				}
				if m.W() < want.MinSize || m.W() > want.MaxSize {
					return fmt.Errorf("round %d: true size %d outside %v", r, m.W(), want)
				}
				if !prev.Unbounded && (want.MinSize < prev.MinSize || want.MaxSize > prev.MaxSize) {
					return fmt.Errorf("round %d: interval %v escapes previous %v", r, want, prev)
				}
				prev, last = want, want
			}
			// Endpoint realizability on the full view: reconstruct a
			// multigraph of each extreme size and demand the identical view.
			view, err := m.LeaderView(m.Horizon())
			if err != nil {
				return err
			}
			for _, n := range []int{last.MinSize, last.MaxSize} {
				if err := realizeSize(view, m, n); err != nil {
					return fmt.Errorf("endpoint %d of %v: %w", n, last, err)
				}
			}
			return nil
		},
		Mutants: []Mutant{
			{Name: "solve-widen", Sys: func(sys *System) {
				inner := sys.Solve
				sys.Solve = func(v multigraph.LeaderView) (kernel.Interval, error) {
					iv, err := inner(v)
					if err == nil && !iv.Empty && !iv.Unbounded {
						iv.MaxSize++
					}
					return iv, err
				}
			}},
			{Name: "incremental-stale", Sys: func(sys *System) {
				inner := sys.NewIncremental
				sys.NewIncremental = func() IncrementalAdder {
					return &staleAdder{inner: inner()}
				}
			}},
		},
	}
}

// staleAdder lags the real incremental solver by one round — the classic
// "forgot to fold the newest observation" bug.
type staleAdder struct {
	inner IncrementalAdder
	prev  kernel.Interval
	has   bool
}

func (s *staleAdder) AddRoundIndexed(entries []multigraph.IndexedObsEntry) (kernel.Interval, error) {
	iv, err := s.inner.AddRoundIndexed(entries)
	if err != nil {
		return iv, err
	}
	out := s.prev
	if !s.has {
		out = kernel.Interval{Unbounded: true}
	}
	s.prev, s.has = iv, true
	return out, nil
}

// keyedObservation is a streamed round's observation, whose states have
// the given length, in the string-keyed form of a LeaderView.
func keyedObservation(entries []multigraph.IndexedObsEntry, length int) multigraph.Observation {
	obs := make(multigraph.Observation)
	for _, e := range entries {
		key := multigraph.HistoryFromIndex(int(e.State), length, 2).Key()
		for label, n := range [...]int{1: e.Count1, 2: e.Count2} {
			if n != 0 {
				obs[multigraph.ObsKey{Label: label, StateKey: key}] += n
			}
		}
	}
	return obs
}

// realizeSize checks that size n is genuinely consistent with the view:
// ForcedConfiguration yields non-negative counts whose multigraph reproduces
// the view exactly.
func realizeSize(view multigraph.LeaderView, m *multigraph.Multigraph, n int) error {
	// n = total - c0 with total the sum of round-0 observation counts.
	total := 0
	for _, c := range view[0] {
		total += c
	}
	counts, err := kernel.ForcedConfiguration(view, total-n)
	if err != nil {
		return err
	}
	re, err := multigraph.FromHistoryCounts(2, len(view), counts)
	if err != nil {
		return err
	}
	if re.W() != n {
		return fmt.Errorf("reconstruction has %d nodes, want %d", re.W(), n)
	}
	reView, err := re.LeaderView(len(view))
	if err != nil {
		return err
	}
	if !reView.Equal(view) {
		return fmt.Errorf("reconstructed view differs")
	}
	return nil
}

// eliminationOracle is the three-way differential check on small views:
// dense rational elimination ≡ structured batch solver ≡ general-k
// enumerator, as explicit size sets.
func eliminationOracle() *Oracle {
	return &Oracle{
		Name: "eliminate",
		Doc:  "dense rational elimination ≡ O(3^t) solver ≡ DFS enumerator on k=2 views",
		Gen: func(rng *rand.Rand) (*Instance, error) {
			return genSchedule(rng, 7, 3)
		},
		Check: func(inst *Instance, sys *System) error {
			view, err := inst.M.LeaderView(inst.M.Horizon())
			if err != nil {
				return err
			}
			iv, err := sys.Solve(view)
			if err != nil {
				return err
			}
			var fromInterval []int
			for n := iv.MinSize; n <= iv.MaxSize; n++ {
				fromInterval = append(fromInterval, n)
			}
			elim, err := sys.Eliminate(view)
			if err != nil {
				return fmt.Errorf("elimination: %w", err)
			}
			if !equalInts(elim, fromInterval) {
				return fmt.Errorf("elimination %v != solver %v", elim, fromInterval)
			}
			enum, err := sys.Enumerate(view, 2, sys.Limits)
			if err != nil {
				return fmt.Errorf("enumerate: %w", err)
			}
			if !equalInts(enum, fromInterval) {
				return fmt.Errorf("enumerator %v != solver %v", enum, fromInterval)
			}
			return nil
		},
		Mutants: []Mutant{
			{Name: "eliminate-drop-min", Sys: func(sys *System) {
				inner := sys.Eliminate
				sys.Eliminate = func(v multigraph.LeaderView) ([]int, error) {
					sizes, err := inner(v)
					if err == nil && len(sizes) > 0 {
						sizes = sizes[1:]
					}
					return sizes, err
				}
			}},
			{Name: "solve-shift", Sys: func(sys *System) {
				inner := sys.Solve
				sys.Solve = func(v multigraph.LeaderView) (kernel.Interval, error) {
					iv, err := inner(v)
					if err == nil && !iv.Empty && !iv.Unbounded {
						iv.MinSize++
						iv.MaxSize++
					}
					return iv, err
				}
			}},
		},
	}
}

// closedFormOracle validates the paper's closed forms against independent
// recomputations: M_r·k_r = 0 via the structured product, the Lemma 4 kernel
// sums against a literal count of the sign pattern, Σk_r = 1, and the
// ⌊log₃(2n+1)⌋ horizon against big-integer arithmetic and its inverse.
func closedFormOracle() *Oracle {
	return &Oracle{
		Name: "closedform",
		Doc:  "M_r·k_r = 0, Lemma 4 sums, and the ⌊log₃(2n+1)⌋ horizon vs big-int recomputation",
		Gen: func(rng *rand.Rand) (*Instance, error) {
			return genSchedule(rng, 2000, 6)
		},
		Check: func(inst *Instance, sys *System) error {
			r := inst.M.Horizon() - 1
			kv := sys.Kernel(r)
			prod, err := kernel.StructuredMulVec(r, 2, kv)
			if err != nil {
				return err
			}
			for i := range prod {
				if prod[i].Sign() != 0 {
					return fmt.Errorf("M_%d·k_%d has nonzero row %d = %s", r, r, i, prod[i])
				}
			}
			neg, pos, sum := big.NewInt(0), big.NewInt(0), big.NewInt(0)
			for i := range kv {
				switch kv[i].Sign() {
				case -1:
					neg.Sub(neg, kv[i])
				case 1:
					pos.Add(pos, kv[i])
				default:
					return fmt.Errorf("kernel entry %d is zero", i)
				}
				sum.Add(sum, kv[i])
			}
			if neg.Cmp(sys.KernelSumNeg(r)) != 0 {
				return fmt.Errorf("Σ⁻k_%d: counted %s, closed form %s", r, neg, sys.KernelSumNeg(r))
			}
			if pos.Cmp(sys.KernelSumPos(r)) != 0 {
				return fmt.Errorf("Σ⁺k_%d: counted %s, closed form %s", r, pos, sys.KernelSumPos(r))
			}
			if sum.Cmp(big.NewInt(1)) != 0 {
				return fmt.Errorf("Σk_%d = %s, want 1", r, sum)
			}
			// Horizon closed form at several scales derived from |W|.
			for _, n := range []int{inst.M.W(), 3*inst.M.W() + 1, 81*inst.M.W() + 40, 1<<40 + inst.M.W()} {
				got := sys.MaxIndist(n)
				want := core.LowerBoundRoundsBig(big.NewInt(int64(n))).Int64() - 1
				if int64(got) != want {
					return fmt.Errorf("MaxIndistinguishableRounds(%d) = %d, big-int says %d", n, got, want)
				}
				// Inverse relation: MinSizeFor(t) ≤ n ⇔ MaxIndist(n) ≥ t.
				if sys.MinSizeFor(got) > n {
					return fmt.Errorf("MinSizeForRounds(%d) = %d > n = %d", got, sys.MinSizeFor(got), n)
				}
				if sys.MinSizeFor(got+1) <= n {
					return fmt.Errorf("MinSizeForRounds(%d) = %d ≤ n = %d", got+1, sys.MinSizeFor(got+1), n)
				}
			}
			return nil
		},
		Mutants: []Mutant{
			{Name: "kernel-sign-flip", Sys: func(sys *System) {
				inner := sys.Kernel
				sys.Kernel = func(r int) linalg.Vector {
					kv := inner(r)
					kv[len(kv)-1].Neg(kv[len(kv)-1])
					return kv
				}
			}},
			{Name: "maxindist-off-by-one", Sys: func(sys *System) {
				inner := sys.MaxIndist
				sys.MaxIndist = func(n int) int { return inner(n) + 1 }
			}},
		},
	}
}

// pairOracle regenerates the Lemma-5 adversarial pair and verifies its
// defining properties end to end: sizes n and n+1, leader views identical
// through the sustained rounds, count difference exactly the kernel vector,
// the solver unable to separate the twins on the common view, and the
// deterministic extension forcing divergence at exactly round EqRounds+1.
func pairOracle() *Oracle {
	return &Oracle{
		Name: "pair",
		Doc:  "Lemma 5 pairs: equal views, kernel count-difference, solver width ≥ 2, divergence at round r+1",
		Gen: func(rng *rand.Rand) (*Instance, error) {
			return genPair(rng, 45, 4)
		},
		Check: func(inst *Instance, sys *System) error {
			n, r := inst.M.W(), inst.EqRounds
			if inst.Twin == nil {
				return fmt.Errorf("pair instance without twin")
			}
			if inst.Twin.W() != n+1 {
				return fmt.Errorf("twin has %d nodes, want %d", inst.Twin.W(), n+1)
			}
			va, err := inst.M.LeaderView(r)
			if err != nil {
				return err
			}
			vb, err := inst.Twin.LeaderView(r)
			if err != nil {
				return err
			}
			if !va.Equal(vb) {
				return fmt.Errorf("leader views differ within %d rounds", r)
			}
			// Count difference is exactly the kernel vector k_{r-1}.
			ca, err := inst.M.HistoryCounts(r)
			if err != nil {
				return err
			}
			cb, err := inst.Twin.HistoryCounts(r)
			if err != nil {
				return err
			}
			kv := sys.Kernel(r - 1)
			for i := range ca {
				if big.NewInt(int64(cb[i]-ca[i])).Cmp(kv[i]) != 0 {
					return fmt.Errorf("count difference at history %d is %d, kernel says %s", i, cb[i]-ca[i], kv[i])
				}
			}
			// The solver must not separate the twins on the common view.
			iv, err := sys.Solve(va)
			if err != nil {
				return err
			}
			if iv.Empty || iv.Unbounded || iv.MinSize > n || iv.MaxSize < n+1 {
				return fmt.Errorf("interval %v on the common view excludes {%d,%d}", iv, n, n+1)
			}
			// The extension diverges at exactly round r+1.
			pair := &core.Pair{M: inst.M, MPrime: inst.Twin, N: n, Rounds: r}
			div, ok := pair.FirstDivergence()
			if !ok {
				return fmt.Errorf("extended views never diverge within horizon %d", inst.M.Horizon())
			}
			if div != r+1 {
				return fmt.Errorf("views diverge at round %d, want %d", div, r+1)
			}
			return nil
		},
		Mutants: []Mutant{
			{Name: "twin-label-flip", Corrupt: func(inst *Instance, rng *rand.Rand) {
				flipLabel(inst, rng, true)
			}},
			{Name: "solve-narrow", Sys: func(sys *System) {
				inner := sys.Solve
				sys.Solve = func(v multigraph.LeaderView) (kernel.Interval, error) {
					iv, err := inner(v)
					if err == nil && !iv.Empty && !iv.Unbounded {
						iv.MaxSize = iv.MinSize
					}
					return iv, err
				}
			}},
		},
	}
}

// flipLabel replaces one label set within the first EqRounds rounds of the
// instance (the twin when twin is true) with a different valid symbol.
func flipLabel(inst *Instance, rng *rand.Rand, twin bool) {
	m := inst.M
	if twin {
		m = inst.Twin
	}
	if m == nil || m.W() == 0 || m.Horizon() == 0 {
		return
	}
	v := rng.Intn(m.W())
	limit := m.Horizon()
	if inst.EqRounds > 0 && inst.EqRounds < limit {
		limit = inst.EqRounds
	}
	r := rng.Intn(limit)
	labels := scheduleOf(m)
	old := labels[v][r]
	// LabelSet values for alphabet k are 1..2^k−1 and SymbolFromIndex(i) is
	// i+1, so the index of old is int(old)-1; step to a different symbol.
	symbols := multigraph.SymbolCount(m.K())
	labels[v][r] = multigraph.SymbolFromIndex((int(old) + rng.Intn(symbols-1)) % symbols)
	nm, err := multigraph.New(m.K(), labels)
	if err != nil {
		return
	}
	if twin {
		inst.Twin = nm
	} else {
		inst.M = nm
	}
}

// transformOracle checks the Lemma-1 transformation into 𝒢(PD)₂: the image
// is 1-interval connected, sits exactly in G(PD)₂ with the layer partition
// {leader} ∪ relays ∪ W, and inverts back to the original schedule.
func transformOracle() *Oracle {
	return &Oracle{
		Name: "transform",
		Doc:  "ToPD2 image is connected, exactly G(PD)₂ with layers {v_l}∪V₁∪V₂, and FromPD2 inverts it",
		Gen: func(rng *rand.Rand) (*Instance, error) {
			return genSchedule(rng, 12, 4)
		},
		Check: func(inst *Instance, sys *System) error {
			m := inst.M
			d, layout, err := sys.Transform(m)
			if err != nil {
				return err
			}
			rounds := m.Horizon()
			if err := dynet.VerifyIntervalConnectivity(d, rounds); err != nil {
				return err
			}
			h, err := dynet.PDClass(d, layout.Leader, rounds)
			if err != nil {
				return err
			}
			if h != 2 {
				return fmt.Errorf("transformed graph is in G(PD)_%d, want exactly 2", h)
			}
			layers, err := dynet.LayerPartition(d, layout.Leader, rounds)
			if err != nil {
				return err
			}
			if len(layers[0]) != 1 || len(layers[1]) != m.K() || len(layers[2]) != m.W() {
				return fmt.Errorf("layer sizes (%d,%d,%d), want (1,%d,%d)",
					len(layers[0]), len(layers[1]), len(layers[2]), m.K(), m.W())
			}
			back, err := multigraph.FromPD2(d, layout.Leader, layout.V1, layout.V2, rounds)
			if err != nil {
				return fmt.Errorf("FromPD2: %w", err)
			}
			if back.W() != m.W() || back.K() != m.K() || back.Horizon() != m.Horizon() {
				return fmt.Errorf("roundtrip shape (%d,%d,%d) != (%d,%d,%d)",
					back.W(), back.K(), back.Horizon(), m.W(), m.K(), m.Horizon())
			}
			for v := 0; v < m.W(); v++ {
				for r := 0; r < rounds; r++ {
					a, _ := m.LabelsAt(v, r)
					b, _ := back.LabelsAt(v, r)
					if a != b {
						return fmt.Errorf("roundtrip label (%d,%d): %v != %v", v, r, b, a)
					}
				}
			}
			return nil
		},
		Mutants: []Mutant{
			{Name: "transform-drop-edge", Sys: func(sys *System) {
				inner := sys.Transform
				sys.Transform = transformDropEdge(inner)
			}},
		},
	}
}

// relabelOracle checks the symmetries the anonymous leader cannot see
// through: solver invariance under label permutation, invariance of the
// canonical-under-relabeling encoding, additivity of observations under
// disjoint union, and view-prefix stability under concatenation/truncation.
func relabelOracle() *Oracle {
	return &Oracle{
		Name: "relabel",
		Doc:  "solver invariant under label permutation; observations additive under union; prefix-stable under concat",
		Gen: func(rng *rand.Rand) (*Instance, error) {
			return genSchedule(rng, 20, 4)
		},
		Check: func(inst *Instance, sys *System) error {
			m := inst.M
			view, err := m.LeaderView(m.Horizon())
			if err != nil {
				return err
			}
			base, err := sys.Solve(view)
			if err != nil {
				return err
			}
			for _, perm := range multigraph.Permutations(m.K()) {
				rm, err := m.Relabel(perm)
				if err != nil {
					return err
				}
				rview, err := rm.LeaderView(rm.Horizon())
				if err != nil {
					return err
				}
				riv, err := sys.Solve(rview)
				if err != nil {
					return err
				}
				if riv != base {
					return fmt.Errorf("perm %v: interval %v != %v", perm, riv, base)
				}
				canA, err := m.CanonicalUnderRelabeling(m.Horizon())
				if err != nil {
					return err
				}
				canB, err := rm.CanonicalUnderRelabeling(m.Horizon())
				if err != nil {
					return err
				}
				if canA != canB {
					return fmt.Errorf("perm %v changes the relabeling-canonical view", perm)
				}
			}
			// Union additivity: observations of the disjoint union are the
			// pointwise sums.
			u, err := multigraph.Union(m, m)
			if err != nil {
				return err
			}
			for r := 0; r < m.Horizon(); r++ {
				obs, err := m.LeaderObservation(r)
				if err != nil {
					return err
				}
				uobs, err := u.LeaderObservation(r)
				if err != nil {
					return err
				}
				if len(uobs) != len(obs) {
					return fmt.Errorf("round %d: union observation has %d keys, want %d", r, len(uobs), len(obs))
				}
				for k, c := range obs {
					if uobs[k] != 2*c {
						return fmt.Errorf("round %d key %v: union count %d, want %d", r, k, uobs[k], 2*c)
					}
				}
			}
			// Concat/truncate prefix stability.
			cc, err := multigraph.Concat(m, m)
			if err != nil {
				return err
			}
			cv, err := cc.LeaderView(m.Horizon())
			if err != nil {
				return err
			}
			if !cv.Equal(view) {
				return fmt.Errorf("concat changes the prefix view")
			}
			tr, err := cc.Truncate(m.Horizon())
			if err != nil {
				return err
			}
			tv, err := tr.LeaderView(m.Horizon())
			if err != nil {
				return err
			}
			if !tv.Equal(view) {
				return fmt.Errorf("truncate changes the view")
			}
			return nil
		},
		Mutants: []Mutant{
			{Name: "solve-label-biased", Sys: func(sys *System) {
				inner := sys.Solve
				sys.Solve = func(v multigraph.LeaderView) (kernel.Interval, error) {
					iv, err := inner(v)
					if err != nil || iv.Empty || iv.Unbounded || len(v) == 0 {
						return iv, err
					}
					// Leak the label-1 count of round 0 into the answer: a
					// solver that is not label-symmetric.
					r1 := 0
					for key, c := range v[0] {
						if key.Label == 1 {
							r1 += c
						}
					}
					if r1%2 == 1 {
						iv.MinSize++
						iv.MaxSize++
					}
					return iv, err
				}
			}},
		},
	}
}

// messageOracle is the multigraph-level ≡ message-level differential check:
// the chainnet protocol (relays, forwarding chain, incremental leader) must
// terminate with the same count as the abstract leader-state counter, at
// exactly the abstract round plus the chain delay — and must fail to
// terminate whenever the abstract view stays ambiguous.
func messageOracle() *Oracle {
	return &Oracle{
		Name: "message",
		Doc:  "chainnet message-level run ≡ multigraph-level leader: same count, rounds shifted by exactly the delay",
		Gen: func(rng *rand.Rand) (*Instance, error) {
			return genSchedule(rng, 6, 5)
		},
		Check: func(inst *Instance, sys *System) error {
			m := inst.M
			traj, err := core.UncertaintyTrajectory(m, m.Horizon())
			if err != nil {
				return err
			}
			rc, determined := 0, false
			for i, iv := range traj {
				if iv.Unique() {
					rc, determined = i+1, true
					break
				}
			}
			nw, err := chainnet.BuildFromSchedule(m, inst.Delay)
			if err != nil {
				return err
			}
			maxRounds := m.Horizon() + nw.Delay()
			res, err := sys.MsgCount(nw, maxRounds)
			if !determined {
				if err == nil {
					return fmt.Errorf("abstract view ambiguous through round %d, but protocol terminated with %+v",
						m.Horizon(), res)
				}
				return nil
			}
			if err != nil {
				return fmt.Errorf("abstract leader terminates at round %d, protocol did not: %w", rc, err)
			}
			if res.Count != m.W() {
				return fmt.Errorf("protocol counted %d, want %d", res.Count, m.W())
			}
			if want := rc + nw.Delay(); res.Rounds != want {
				return fmt.Errorf("protocol terminated at round %d, want %d (abstract %d + delay %d)",
					res.Rounds, want, rc, nw.Delay())
			}
			return nil
		},
		Mutants: []Mutant{
			{Name: "msg-extra-round", Sys: func(sys *System) {
				inner := sys.MsgCount
				sys.MsgCount = func(nw *chainnet.Network, maxRounds int) (chainnet.CountResult, error) {
					res, err := inner(nw, maxRounds)
					if err == nil {
						res.Rounds++
					}
					return res, err
				}
			}},
			{Name: "msg-miscount", Sys: func(sys *System) {
				inner := sys.MsgCount
				sys.MsgCount = func(nw *chainnet.Network, maxRounds int) (chainnet.CountResult, error) {
					res, err := inner(nw, maxRounds)
					if err == nil {
						res.Count++
					}
					return res, err
				}
			}},
		},
	}
}

// monotoneOracle checks the termination-round laws across sizes and chain
// delays: the worst-case counter lands exactly on the Theorem 1 bound, the
// chain composition shifts it by exactly the delay, and the bound itself is
// monotone with the exact inverse relation to MinSizeForRounds.
func monotoneOracle() *Oracle {
	return &Oracle{
		Name: "monotone",
		Doc:  "worst-case rounds = bound(n); chain rounds = delay + bound; bound monotone in n with exact inverse",
		Gen: func(rng *rand.Rand) (*Instance, error) {
			return genSchedule(rng, 45, 3)
		},
		Check: func(inst *Instance, sys *System) error {
			n := inst.M.W()
			res, err := sys.WorstRounds(n)
			if err != nil {
				return err
			}
			bound := sys.MaxIndist(n) + 1
			if res.Count != n || res.Rounds != bound {
				return fmt.Errorf("worst-case counter on n=%d: (%d, %d rounds), want (%d, %d rounds)",
					n, res.Count, res.Rounds, n, bound)
			}
			for _, d := range []int{0, inst.Delay + 1} {
				cres, err := sys.ChainRounds(n, d)
				if err != nil {
					return err
				}
				if cres.Count != n || cres.Rounds != d+bound {
					return fmt.Errorf("chain(n=%d, delay=%d): (%d, %d rounds), want (%d, %d rounds)",
						n, d, cres.Count, cres.Rounds, n, d+bound)
				}
			}
			// Monotonicity and inverse exactness around n.
			t := sys.MaxIndist(n)
			next := sys.MaxIndist(n + 1)
			if next < t || next > t+1 {
				return fmt.Errorf("MaxIndist jumps from %d to %d between n=%d and n=%d", t, next, n, n+1)
			}
			if sys.MinSizeFor(t) > n {
				return fmt.Errorf("MinSizeForRounds(%d) = %d > n = %d", t, sys.MinSizeFor(t), n)
			}
			if sys.MinSizeFor(t+1) <= n {
				return fmt.Errorf("MinSizeForRounds(%d) = %d ≤ n = %d", t+1, sys.MinSizeFor(t+1), n)
			}
			return nil
		},
		Mutants: []Mutant{
			{Name: "chain-delay-drop", Sys: func(sys *System) {
				inner := sys.ChainRounds
				sys.ChainRounds = func(n, delay int) (core.CountResult, error) {
					res, err := inner(n, delay)
					if err == nil && delay > 0 {
						res.Rounds--
					}
					return res, err
				}
			}},
			{Name: "minsize-off-by-one", Sys: func(sys *System) {
				inner := sys.MinSizeFor
				sys.MinSizeFor = func(t int) int { return inner(t) + 1 }
			}},
		},
	}
}

// enumKOracle exercises the general-k enumerator on tiny ℳ(DBL)ₖ instances:
// the true size is always reported, k = 1 pins the count immediately, and
// k = 2 agrees with the closed-form interval solver.
func enumKOracle() *Oracle {
	return &Oracle{
		Name: "enumk",
		Doc:  "general-k enumerator contains the truth; k=1 is immediate; k=2 matches the interval solver",
		Gen: func(rng *rand.Rand) (*Instance, error) {
			return genScheduleK(rng, 3, 4, 2)
		},
		Check: func(inst *Instance, sys *System) error {
			m := inst.M
			view, err := m.LeaderView(m.Horizon())
			if err != nil {
				return err
			}
			sizes, err := sys.Enumerate(view, m.K(), sys.Limits)
			if err != nil {
				return err
			}
			if !containsInt(sizes, m.W()) {
				return fmt.Errorf("k=%d enumerator %v misses the true size %d", m.K(), sizes, m.W())
			}
			switch m.K() {
			case 1:
				if len(sizes) != 1 || sizes[0] != m.W() {
					return fmt.Errorf("k=1 view must pin the count: got %v, want [%d]", sizes, m.W())
				}
			case 2:
				iv, err := sys.Solve(view)
				if err != nil {
					return err
				}
				var want []int
				for n := iv.MinSize; n <= iv.MaxSize; n++ {
					want = append(want, n)
				}
				if !equalInts(sizes, want) {
					return fmt.Errorf("k=2 enumerator %v != solver %v", sizes, want)
				}
			}
			return nil
		},
		Mutants: []Mutant{
			{Name: "enum-drop-max", Sys: func(sys *System) {
				inner := sys.Enumerate
				sys.Enumerate = func(view multigraph.LeaderView, k int, limits kernel.EnumLimits) ([]int, error) {
					sizes, err := inner(view, k, limits)
					if err == nil && len(sizes) > 0 {
						sizes = sizes[:len(sizes)-1]
					}
					return sizes, err
				}
			}},
		},
	}
}

// histTreeCountOracle runs the history-tree counter on the Lemma-1
// transformation of a random ℳ(DBL)₂ schedule and requires the exact total
// size |V| = 1 + k + |W| within the 3n+8 linear round bound — the
// cross-check between the anonymity-from-first-principles algorithm
// (arXiv:2204.02128) and the repository's model layers: the transformation
// supplies the adversary, the schedule supplies the ground truth, and
// neither the counter nor the check ever reads node identities.
func histTreeCountOracle() *Oracle {
	return &Oracle{
		Name: "histtree-count",
		Doc:  "history-tree counter is exact and linear-round on transformed random schedules",
		Gen: func(rng *rand.Rand) (*Instance, error) {
			return genSchedule(rng, 10, 4)
		},
		Check: func(inst *Instance, sys *System) error {
			m := inst.M
			net, layout, err := sys.Transform(m)
			if err != nil {
				return err
			}
			total := 1 + m.K() + m.W()
			if got := layout.N(); got != total {
				return fmt.Errorf("layout has %d nodes, want %d", got, total)
			}
			budget := 3*total + 10
			count, rounds, err := sys.HistCount(net, layout.Leader, budget)
			if err != nil {
				return err
			}
			if count != total {
				return fmt.Errorf("history-tree counted %d on a |V|=%d transformed schedule", count, total)
			}
			if rounds < 1 || rounds > 3*total+8 {
				return fmt.Errorf("history-tree used %d rounds on |V|=%d, outside [1, 3n+8] = [1, %d]",
					rounds, total, 3*total+8)
			}
			return nil
		},
		Mutants: []Mutant{
			// An off-by-one in the cardinality solve: every count is one
			// too high.
			{Name: "hist-overcount", Sys: func(sys *System) {
				inner := sys.HistCount
				sys.HistCount = func(net dynet.Dynamic, leader graph.NodeID, maxRounds int) (int, int, error) {
					c, r, err := inner(net, leader, maxRounds)
					return c + 1, r, err
				}
			}},
			// A broken acceptance rule: termination slips past the linear
			// bound (the counter burns its whole budget before deciding).
			{Name: "hist-round-blowup", Sys: func(sys *System) {
				inner := sys.HistCount
				sys.HistCount = func(net dynet.Dynamic, leader graph.NodeID, maxRounds int) (int, int, error) {
					c, _, err := inner(net, leader, maxRounds)
					return c, maxRounds, err
				}
			}},
		},
	}
}

// scheduleOf reads the full label schedule back out of a multigraph as a
// mutable matrix.
func scheduleOf(m *multigraph.Multigraph) [][]multigraph.LabelSet {
	labels := make([][]multigraph.LabelSet, m.W())
	for v := 0; v < m.W(); v++ {
		row := make([]multigraph.LabelSet, m.Horizon())
		for r := 0; r < m.Horizon(); r++ {
			s, err := m.LabelsAt(v, r)
			if err != nil {
				s = multigraph.SetOf(1)
			}
			row[r] = s
		}
		labels[v] = row
	}
	return labels
}

// transformDropEdge wraps a Transform hook so the round-0 snapshot loses its
// first relay–W edge: the image either violates the FromPD2 structural
// checks (an isolated W node) or rounds-trips to a different schedule.
func transformDropEdge(inner func(*multigraph.Multigraph) (dynet.Dynamic, *multigraph.PD2Layout, error)) func(*multigraph.Multigraph) (dynet.Dynamic, *multigraph.PD2Layout, error) {
	return func(m *multigraph.Multigraph) (dynet.Dynamic, *multigraph.PD2Layout, error) {
		d, layout, err := inner(m)
		if err != nil {
			return d, layout, err
		}
		broken := dynet.NewFunc(d.N(), func(r int) *graph.Graph {
			g := d.Snapshot(r)
			if r != 0 {
				return g
			}
			for _, e := range g.Edges() {
				if e.U != layout.Leader && e.V != layout.Leader {
					cp := g.Clone()
					if err := cp.RemoveEdge(e.U, e.V); err == nil {
						return cp
					}
				}
			}
			return g
		})
		return broken, layout, nil
	}
}

// equalInts compares two int slices element-wise (both sorted ascending by
// their producers).
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
