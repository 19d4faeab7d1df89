package experiments

import (
	"context"
	"fmt"
	"strings"

	"anondyn/internal/core"
	"anondyn/internal/counting"
	"anondyn/internal/dissemination"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/kernel"
	"anondyn/internal/multigraph"
	"anondyn/internal/runtime"
)

// Discussion measures the degree-oracle algorithm: constant rounds across
// sizes, versus the growing anonymous lower bound for the same sizes.
func Discussion(ctx context.Context) ([]Row, error) {
	var bad []string
	var series []string
	for _, outer := range []int{3, 9, 27, 81, 243} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		inst, err := counting.RestrictedPD2Instance(outer)
		if err != nil {
			return nil, err
		}
		count, rounds, err := counting.OracleCount(inst.Net, inst.Leader, inst.V1, inst.V2, runtime.SequentialEngine(ctx))
		if err != nil {
			return nil, err
		}
		want := 1 + 2 + outer
		series = append(series, fmt.Sprintf("n=%d:%d rounds (anon bound %d)", want, rounds, core.LowerBoundRounds(outer)))
		if count != want || rounds != 2 {
			bad = append(bad, fmt.Sprintf("outer=%d got count %d in %d rounds", outer, count, rounds))
		}
	}
	measured := strings.Join(series, "; ")
	if len(bad) > 0 {
		measured = "FAILURES: " + strings.Join(bad, "; ")
	}
	return []Row{{
		ID: "D1", Name: "Discussion: degree oracle collapses the bound",
		Params:   "restricted G(PD)_2, k=2, |V2| ∈ {3,9,27,81,243}",
		Paper:    "with |N(v,r)| known before sending, counting takes O(1) rounds",
		Measured: measured,
		Match:    len(bad) == 0,
	}}, nil
}

// Gap runs the headline comparison on the same worst-case networks:
// flooding (information dissemination) completes within the dynamic
// diameter, while exact counting needs the extra Ω(log n) anonymity rounds.
func Gap(ctx context.Context) ([]Row, error) {
	var bad []string
	var series []string
	maxD := 0
	var countSeries []int
	sizes := []int{4, 13, 40, 121, 364}
	for _, n := range sizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wc, err := core.WorstCaseAdversary(n)
		if err != nil {
			return nil, err
		}
		horizon := wc.Schedule.Horizon()
		d, err := dynet.DynamicDiameter(wc.Net, horizon, 200)
		if err != nil {
			return nil, err
		}
		initial, err := dissemination.SingleSource(wc.Net.N(), int(wc.Layout.Leader), 1)
		if err != nil {
			return nil, err
		}
		fl, err := dissemination.Run(wc.Net, initial, dissemination.Unlimited, 200, runtime.SequentialEngine(ctx))
		if err != nil {
			return nil, err
		}
		cnt, err := core.WorstCaseCountRounds(n)
		if err != nil {
			return nil, err
		}
		series = append(series, fmt.Sprintf("n=%d: flood %d, D %d, count %d", n, fl.Rounds, d, cnt.Rounds))
		if fl.Rounds > d {
			bad = append(bad, fmt.Sprintf("n=%d: flood %d exceeds D %d", n, fl.Rounds, d))
		}
		if d > maxD {
			maxD = d
		}
		countSeries = append(countSeries, cnt.Rounds)
	}
	// The paper's shape: D stays constant in |V| while counting rounds
	// grow as log |V| and eventually exceed any fixed D.
	for i := 1; i < len(countSeries); i++ {
		if countSeries[i] <= countSeries[i-1] {
			bad = append(bad, fmt.Sprintf("count rounds not increasing at n=%d", sizes[i]))
		}
	}
	if maxD > 4 {
		bad = append(bad, fmt.Sprintf("dynamic diameter %d not constant-bounded", maxD))
	}
	if countSeries[len(countSeries)-1] <= maxD {
		bad = append(bad, fmt.Sprintf("count rounds %d never exceeded D=%d", countSeries[len(countSeries)-1], maxD))
	}
	measured := strings.Join(series, "; ")
	if len(bad) > 0 {
		measured = "FAILURES: " + strings.Join(bad, "; ")
	}
	return []Row{{
		ID: "G1", Name: "Headline gap: dissemination vs counting",
		Params:   fmt.Sprintf("worst-case G(PD)_2 networks, n ∈ %v", sizes),
		Paper:    "D constant in |V|; counting grows as Ω(log |V|) and outgrows D",
		Measured: measured,
		Match:    len(bad) == 0,
	}}, nil
}

// AblationK3 repeats the indistinguishability construction inside ℳ(DBL)₃
// (ℳ(DBL)₂ ⊆ ℳ(DBL)ₖ) and checks that larger alphabets only make counting
// harder: the kernel of M_r grows with k.
func AblationK3(ctx context.Context) ([]Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Kernel dimensions for k=3 exceed 1 already at r=0.
	m3, err := kernel.Matrix(0, 3)
	if err != nil {
		return nil, err
	}
	dim3 := len(m3.KernelBasis())
	m2, err := kernel.Matrix(0, 2)
	if err != nil {
		return nil, err
	}
	dim2 := len(m2.KernelBasis())

	// The k=2 worst-case pair remains valid (and indistinguishable —
	// relabeling included) when interpreted over the k=3 alphabet.
	pair, err := core.WorstCasePair(13)
	if err != nil {
		return nil, err
	}
	va, err := pair.M.LeaderView(pair.Rounds)
	if err != nil {
		return nil, err
	}
	vb, err := pair.MPrime.LeaderView(pair.Rounds)
	if err != nil {
		return nil, err
	}
	embedOK := va.Equal(vb)

	// Measured ambiguity after one round when every node shows its full
	// label set: 2 nodes on {1,2} (k=2) vs 2 nodes on {1,2,3} (k=3).
	full2, err := multigraph.New(2, [][]multigraph.LabelSet{
		{multigraph.SetOf(1, 2)}, {multigraph.SetOf(1, 2)},
	})
	if err != nil {
		return nil, err
	}
	v2view, err := full2.LeaderView(1)
	if err != nil {
		return nil, err
	}
	sizes2, err := kernel.EnumerateSizes(v2view, 2, kernel.EnumLimits{})
	if err != nil {
		return nil, err
	}
	m3full, err := multigraph.New(3, [][]multigraph.LabelSet{
		{multigraph.SetOf(1, 2, 3)}, {multigraph.SetOf(1, 2, 3)},
	})
	if err != nil {
		return nil, err
	}
	v3view, err := m3full.LeaderView(1)
	if err != nil {
		return nil, err
	}
	sizes3, err := kernel.EnumerateSizes(v3view, 3, kernel.EnumLimits{})
	if err != nil {
		return nil, err
	}
	return []Row{{
		ID: "A1", Name: "Ablation: alphabet size k",
		Params: "kernel dims at r=0; k=2 pair embedded in DBL_3; 2-node full-label views",
		Paper:  "M(DBL)_2 ⊆ M(DBL)_k: the bound holds for every k ≥ 2, and grows with k",
		Measured: fmt.Sprintf("dim ker k=2: %d, k=3: %d; embedded pair indistinguishable=%v; consistent sizes k=2: %v, k=3: %v",
			dim2, dim3, embedOK, sizes2, sizes3),
		Match: dim2 == 1 && dim3 > 1 && embedOK && len(sizes3) > len(sizes2),
	}}, nil
}

// AblationStar confirms the h = 1 boundary: on 𝒢(PD)₁ stars the count is
// exact after one round at every size — anonymity costs nothing at
// persistent distance 1.
func AblationStar(ctx context.Context) ([]Row, error) {
	var bad []string
	var series []string
	for _, n := range []int{2, 5, 20, 100, 500} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		star, err := graph.Star(n, 0)
		if err != nil {
			return nil, err
		}
		count, rounds, err := counting.StarCount(dynet.NewStatic(star), 0, runtime.SequentialEngine(ctx))
		if err != nil {
			return nil, err
		}
		series = append(series, fmt.Sprintf("n=%d:%d round", n, rounds))
		if count != n || rounds != 1 {
			bad = append(bad, fmt.Sprintf("n=%d got count %d in %d rounds", n, count, rounds))
		}
	}
	measured := strings.Join(series, " ")
	if len(bad) > 0 {
		measured = "FAILURES: " + strings.Join(bad, "; ")
	}
	return []Row{{
		ID: "A2", Name: "Ablation: G(PD)_1 stars count in one round",
		Params:   "n ∈ {2,5,20,100,500}",
		Paper:    "the leader outputs the exact count in one round, independent of anonymity",
		Measured: measured,
		Match:    len(bad) == 0,
	}}, nil
}
