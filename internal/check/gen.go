package check

import (
	"fmt"
	"math/rand"
	"strings"

	"anondyn/internal/core"
	"anondyn/internal/dynet"
	"anondyn/internal/multigraph"
)

// Instance is one generated test case: an adversary schedule plus the
// parameters the oracles derive everything else from. Every oracle consumes
// the same shape, which is what lets the shrinker be generic.
type Instance struct {
	// M is the primary ℳ(DBL)ₖ schedule. Always set.
	M *multigraph.Multigraph
	// Twin is the Lemma-5 twin of M (|W|+1 nodes, views equal through
	// EqRounds). Only set for pair instances.
	Twin *multigraph.Multigraph
	// EqRounds is the number of completed rounds through which M and Twin
	// claim indistinguishable leader views. Zero unless Twin is set.
	EqRounds int
	// Delay is the static-chain length for composition oracles (the chain
	// of Corollary 1 has Delay intermediate nodes, so observations reach
	// the leader Delay+1 rounds late).
	Delay int
	// Fam is the adversary-family parameter block for the dynet oracles.
	// Only set for family instances (M then holds a trivial placeholder
	// schedule).
	Fam *FamilyCase
}

// FamilyCase parameterizes one dynet adversary-family draw. The oracles
// rebuild the network from these parameters through the System hooks, so a
// mutant can interpose on the construction itself.
type FamilyCase struct {
	// Kind is "tinterval", "churn", or "randomized".
	Kind string
	// N is the slot count; T the stability window (tinterval only); Core
	// and Dwell the stable-core size and stint length (churn only).
	N, T, Core, Dwell int
	// Policy is the churn rejoin policy (churn only).
	Policy dynet.RejoinPolicy
	// P is the extra-edge probability.
	P float64
	// Seed is the deterministic schedule seed.
	Seed int64
	// Rounds is how far the oracle verifies the family's properties.
	Rounds int
}

// String renders the instance compactly for failure reports. The schedule is
// printed in full only when small; the replay seed is the canonical way to
// reproduce a large one.
func (inst *Instance) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "w=%d k=%d horizon=%d delay=%d",
		inst.M.W(), inst.M.K(), inst.M.Horizon(), inst.Delay)
	if inst.Twin != nil {
		fmt.Fprintf(&sb, " twin(w=%d eq=%d)", inst.Twin.W(), inst.EqRounds)
	}
	if inst.Fam != nil {
		f := inst.Fam
		fmt.Fprintf(&sb, " fam=%s(n=%d", f.Kind, f.N)
		switch f.Kind {
		case "tinterval":
			fmt.Fprintf(&sb, " T=%d", f.T)
		case "churn":
			fmt.Fprintf(&sb, " core=%d dwell=%d policy=%s", f.Core, f.Dwell, f.Policy)
		}
		fmt.Fprintf(&sb, " p=%.2f seed=%d rounds=%d)", f.P, f.Seed, f.Rounds)
		return sb.String()
	}
	if inst.M.W()*inst.M.Horizon() <= 64 {
		sb.WriteString(" schedule=")
		sb.WriteString(formatSchedule(inst.M))
	}
	return sb.String()
}

// formatSchedule renders a small schedule as per-node label-set rows.
func formatSchedule(m *multigraph.Multigraph) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for v := 0; v < m.W(); v++ {
		if v > 0 {
			sb.WriteString("; ")
		}
		for r := 0; r < m.Horizon(); r++ {
			s, err := m.LabelsAt(v, r)
			if err != nil {
				sb.WriteString("?")
				continue
			}
			sb.WriteString(s.String())
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

// boundarySizes are the Σ⁻k_r thresholds (3^T − 1)/2 at which the Theorem 1
// horizon jumps — the sizes where off-by-one bugs in the closed forms and in
// the adversary construction live.
var boundarySizes = []int{1, 4, 13, 40, 121, 364}

// biasedSize draws a network size in [1, maxW], landing on or next to a
// 3-power boundary half the time. The paper's identities are exact at the
// thresholds and one off on either side of them, so uniform sampling would
// waste most draws on the flat interior.
func biasedSize(rng *rand.Rand, maxW int) int {
	if maxW < 1 {
		maxW = 1
	}
	if rng.Intn(2) == 0 {
		b := boundarySizes[rng.Intn(len(boundarySizes))] + rng.Intn(3) - 1
		if b >= 1 && b <= maxW {
			return b
		}
	}
	return rng.Intn(maxW) + 1
}

// genSchedule draws a random ℳ(DBL)₂ schedule with biased edge cases:
// boundary sizes, the single-node network, and label-distribution extremes
// (all-{1,2} "max-label" rounds, near-constant schedules).
func genSchedule(rng *rand.Rand, maxW, maxH int) (*Instance, error) {
	w := biasedSize(rng, maxW)
	h := rng.Intn(maxH) + 1
	labels := make([][]multigraph.LabelSet, w)
	mode := rng.Intn(4)
	for v := range labels {
		row := make([]multigraph.LabelSet, h)
		for r := range row {
			switch mode {
			case 0: // uniform over the three symbols
				row[r] = multigraph.SymbolFromIndex(rng.Intn(3))
			case 1: // max-label heavy: mostly {1,2}
				if rng.Intn(4) == 0 {
					row[r] = multigraph.SymbolFromIndex(rng.Intn(2))
				} else {
					row[r] = multigraph.SetOf(1, 2)
				}
			case 2: // near-constant per node
				if r == 0 || rng.Intn(8) == 0 {
					row[r] = multigraph.SymbolFromIndex(rng.Intn(3))
				} else {
					row[r] = row[r-1]
				}
			default: // single-label heavy: mostly {1} or {2}
				row[r] = multigraph.SetOf(rng.Intn(2) + 1)
			}
		}
		labels[v] = row
	}
	m, err := multigraph.New(2, labels)
	if err != nil {
		return nil, err
	}
	return &Instance{M: m, Delay: rng.Intn(3)}, nil
}

// genScheduleK draws a random ℳ(DBL)ₖ schedule over a small alphabet, for
// the general-k enumerator. Sizes stay tiny: the enumeration is exponential
// in both the alphabet and the node count.
func genScheduleK(rng *rand.Rand, maxK, maxW, maxH int) (*Instance, error) {
	k := rng.Intn(maxK) + 1
	w := rng.Intn(maxW) + 1
	h := rng.Intn(maxH) + 1
	symbols := multigraph.SymbolCount(k)
	labels := make([][]multigraph.LabelSet, w)
	for v := range labels {
		row := make([]multigraph.LabelSet, h)
		for r := range row {
			row[r] = multigraph.SymbolFromIndex(rng.Intn(symbols))
		}
		labels[v] = row
	}
	m, err := multigraph.New(k, labels)
	if err != nil {
		return nil, err
	}
	return &Instance{M: m, Delay: rng.Intn(3)}, nil
}

// genPair draws a Lemma-5 adversarial pair: a size biased toward the 3-power
// boundaries, a sustained-rounds count up to the Lemma 5 maximum (capped so
// the 3^rounds count vectors stay small), extended past the divergence point
// the way every consumer of the pair uses it.
func genPair(rng *rand.Rand, maxW, maxRounds int) (*Instance, error) {
	n := biasedSize(rng, maxW)
	maxR := core.MaxIndistinguishableRounds(n)
	if maxR > maxRounds {
		maxR = maxRounds
	}
	rounds := rng.Intn(maxR) + 1
	return buildPair(n, rounds, rng.Intn(3))
}

// pairKRoundCaps bounds the sustained-rounds draw per alphabet size so the
// (2^k−1)^rounds history space stays enumerable: 27 histories at the k=2 cap,
// 49 at k=3, 15 at k=4.
var pairKRoundCaps = map[int]int{2: 3, 3: 2, 4: 1}

// genPairK draws a general-k Lemma-5 pair: alphabet size k ∈ {2,3,4}, rounds
// up to the per-k cap, and the smallest sustaining size plus a small excess —
// general-k sizes grow like ((2^k−1)^rounds)/2, so biasing toward the
// threshold keeps instances small while still crossing it.
func genPairK(rng *rand.Rand) (*Instance, error) {
	k := rng.Intn(3) + 2
	rounds := rng.Intn(pairKRoundCaps[k]) + 1
	n := core.MinSizeForRoundsK(rounds, k) + rng.Intn(8)
	return buildPairK(n, rounds, k, rng.Intn(3))
}

// buildPairK constructs the extended general-k pair instance for exact
// parameters; the shrinker uses it to propose smaller pairs.
func buildPairK(n, rounds, k, delay int) (*Instance, error) {
	pair, err := core.IndistinguishablePairK(n, rounds, k)
	if err != nil {
		return nil, err
	}
	ext, err := pair.Extend(2)
	if err != nil {
		return nil, err
	}
	return &Instance{M: ext.M, Twin: ext.MPrime, EqRounds: rounds, Delay: delay}, nil
}

// buildPair is the k=2 special case retained for the k=2-only oracles.
func buildPair(n, rounds, delay int) (*Instance, error) {
	return buildPairK(n, rounds, 2, delay)
}

// placeholderSchedule is the trivial one-node schedule carried by family
// instances, whose payload lives outside M.
func placeholderSchedule() (*multigraph.Multigraph, error) {
	return multigraph.New(2, [][]multigraph.LabelSet{{multigraph.SetOf(1)}})
}

// familyKinds is the draw order for unpinned genFamily calls.
var familyKinds = []string{"tinterval", "churn", "randomized"}

// genFamily draws one dynet adversary-family case of the given kind (or a
// random kind when kind is empty). Sizes are small (the property verifier
// BFS-scans every round) but cover the degenerate shapes: n=1, core=n,
// dwell=1, window=1, and p at both extremes.
func genFamily(rng *rand.Rand, kind string) (*Instance, error) {
	placeholder, err := placeholderSchedule()
	if err != nil {
		return nil, err
	}
	if kind == "" {
		kind = familyKinds[rng.Intn(len(familyKinds))]
	}
	f := &FamilyCase{
		Kind: kind,
		N:    rng.Intn(14) + 1,
		P:    float64(rng.Intn(5)) * 0.1,
		Seed: int64(rng.Int31()),
	}
	switch kind {
	case "tinterval":
		f.T = rng.Intn(5) + 1
		f.Rounds = 3*f.T + rng.Intn(4) + 1
	case "churn":
		f.Core = rng.Intn(f.N) + 1
		f.Dwell = rng.Intn(4) + 1
		f.Policy = dynet.RejoinCycle
		if rng.Intn(2) == 0 {
			f.Policy = dynet.RejoinNever
		}
		f.Rounds = 4*f.Dwell + rng.Intn(4) + 1
	case "randomized":
		f.Rounds = rng.Intn(12) + 4
	default:
		return nil, fmt.Errorf("check: unknown family kind %q", kind)
	}
	return &Instance{M: placeholder, Fam: f}, nil
}

// buildFamilyNet constructs the dynamic network for a family case through the
// System hooks (so mutants can interpose) and returns it with the declared
// properties the family promises.
func buildFamilyNet(f *FamilyCase, sys *System) (dynet.Dynamic, dynet.Properties, error) {
	switch f.Kind {
	case "tinterval":
		d, err := sys.NewTInterval(f.N, f.T, f.P, f.Seed)
		if err != nil {
			return nil, dynet.Properties{}, err
		}
		props := dynet.Properties{
			IntervalConnected: true,
			StabilityWindow:   f.T,
			SeedDeterministic: true,
		}
		if pc, ok := d.(dynet.PropertyCarrier); ok {
			props = pc.Properties()
		}
		return d, props, nil
	case "churn":
		d, err := sys.NewChurn(f.N, f.Core, f.Dwell, f.Policy, f.P, f.Seed)
		if err != nil {
			return nil, dynet.Properties{}, err
		}
		props := dynet.Properties{
			LiveAccounting:    true,
			SeedDeterministic: true,
		}
		if pc, ok := d.(dynet.PropertyCarrier); ok {
			props = pc.Properties()
		}
		return d, props, nil
	case "randomized":
		d, err := dynet.NewTInterval(f.N, 1, f.P, f.Seed)
		if err != nil {
			return nil, dynet.Properties{}, err
		}
		return d, d.Properties(), nil
	}
	return nil, dynet.Properties{}, fmt.Errorf("check: unknown family kind %q", f.Kind)
}
