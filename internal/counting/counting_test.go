package counting

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

func engines() map[string]Runner {
	return map[string]Runner{
		"sequential": runtime.RunSequential,
		"sharded":    runtime.RunSharded,
	}
}

func TestStarCountExactOneRound(t *testing.T) {
	for name, run := range engines() {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{2, 3, 10, 25} {
				star, err := graph.Star(n, 0)
				if err != nil {
					t.Fatal(err)
				}
				count, rounds, err := StarCount(dynet.NewStatic(star), 0, run)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if count != n {
					t.Fatalf("n=%d: counted %d", n, count)
				}
				if rounds != 1 {
					t.Fatalf("n=%d: %d rounds, want 1 (PD_1 counting is free)", n, rounds)
				}
			}
		})
	}
}

func TestStarCountOffCenterLeader(t *testing.T) {
	star, err := graph.Star(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	count, rounds, err := StarCount(dynet.NewStatic(star), 2, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 || rounds != 1 {
		t.Fatalf("count=%d rounds=%d", count, rounds)
	}
}

func TestStarCountRejectsNonStar(t *testing.T) {
	// Leader not adjacent to everyone: the precondition fails.
	if _, _, err := StarCount(dynet.NewStatic(graph.Path(4)), 0, runtime.RunSequential); err == nil {
		t.Fatal("path network should be rejected")
	}
	if _, _, err := StarCount(dynet.NewStatic(graph.Path(4)), 9, runtime.RunSequential); err == nil {
		t.Fatal("bad leader should be rejected")
	}
}

// restrictedPD2 builds a restricted G(PD)_2 network: leader 0, relays 1..k,
// outer nodes attach to round-varying nonempty relay subsets.
func restrictedPD2(k, outer int, seed int64) (dynet.Dynamic, []graph.NodeID, []graph.NodeID) {
	n := 1 + k + outer
	v1 := make([]graph.NodeID, k)
	for i := range v1 {
		v1[i] = graph.NodeID(1 + i)
	}
	v2 := make([]graph.NodeID, outer)
	for i := range v2 {
		v2[i] = graph.NodeID(1 + k + i)
	}
	net := dynet.NewFunc(n, func(r int) *graph.Graph {
		g := graph.New(n)
		for _, rel := range v1 {
			_ = g.AddEdge(0, rel)
		}
		for i, w := range v2 {
			// Deterministic, round-varying relay subset: node i uses
			// relay (i+r) mod k, plus relay (i+r+1) mod k when i is odd.
			_ = g.AddEdge(v1[(i+r)%k], w)
			if i%2 == 1 {
				_ = g.AddEdge(v1[(i+r+1)%k], w)
			}
		}
		_ = seed
		return g
	})
	return net, v1, v2
}

func TestOracleCountExactTwoRounds(t *testing.T) {
	for name, run := range engines() {
		t.Run(name, func(t *testing.T) {
			for _, outer := range []int{1, 2, 5, 12, 30} {
				net, v1, v2 := restrictedPD2(2, outer, 7)
				count, rounds, err := OracleCount(net, 0, v1, v2, run)
				if err != nil {
					t.Fatalf("outer=%d: %v", outer, err)
				}
				if want := 1 + 2 + outer; count != want {
					t.Fatalf("outer=%d: counted %d, want %d", outer, count, want)
				}
				if rounds != 2 {
					t.Fatalf("outer=%d: %d rounds, want 2 (O(1) with the oracle)", outer, rounds)
				}
			}
		})
	}
}

func TestOracleCountConstantRoundsAcrossSizes(t *testing.T) {
	// The whole point of the Discussion: rounds stay constant as |V| grows,
	// while the anonymous bound grows as log |V|.
	for _, outer := range []int{3, 30, 90} {
		net, v1, v2 := restrictedPD2(3, outer, 1)
		_, rounds, err := OracleCount(net, 0, v1, v2, runtime.RunSequential)
		if err != nil {
			t.Fatalf("outer=%d: %v", outer, err)
		}
		if rounds != 2 {
			t.Fatalf("outer=%d: rounds = %d", outer, rounds)
		}
	}
}

func TestOracleCountValidation(t *testing.T) {
	net, v1, v2 := restrictedPD2(2, 4, 3)
	if _, _, err := OracleCount(net, 0, v1, v2[:2], runtime.RunSequential); err == nil {
		t.Fatal("missing nodes should be rejected")
	}
	// Overlapping layers.
	if _, _, err := OracleCount(net, 0, v1, append([]graph.NodeID{v1[0]}, v2[:3]...), runtime.RunSequential); err == nil {
		t.Fatal("overlapping layers should be rejected")
	}
	// Unrestricted network: V2-V2 edge.
	bad := dynet.NewFunc(net.N(), func(r int) *graph.Graph {
		g := net.Snapshot(r).Clone()
		_ = g.AddEdge(v2[0], v2[1])
		return g
	})
	if _, _, err := OracleCount(bad, 0, v1, v2, runtime.RunSequential); err == nil {
		t.Fatal("V2-V2 edge should be rejected")
	}
	// Leader adjacent to an outer node.
	bad2 := dynet.NewFunc(net.N(), func(r int) *graph.Graph {
		g := net.Snapshot(r).Clone()
		_ = g.AddEdge(0, v2[0])
		return g
	})
	if _, _, err := OracleCount(bad2, 0, v1, v2, runtime.RunSequential); err == nil {
		t.Fatal("leader-V2 edge should be rejected")
	}
	// Isolated V2 node.
	bad3 := dynet.NewFunc(net.N(), func(r int) *graph.Graph {
		g := net.Snapshot(r).Clone()
		for _, u := range g.Neighbors(v2[0]) {
			_ = g.RemoveEdge(v2[0], u)
		}
		return g
	})
	if _, _, err := OracleCount(bad3, 0, v1, v2, runtime.RunSequential); err == nil {
		t.Fatal("isolated V2 node should be rejected")
	}
}

func TestOracleMassConservationExact(t *testing.T) {
	// big.Rat keeps the aggregation exact even with many odd degrees:
	// 1/3 + 1/3 + 1/3 must be exactly 1, not 0.9999....
	sum := new(big.Rat)
	third := big.NewRat(1, 3)
	for i := 0; i < 3; i++ {
		sum.Add(sum, third)
	}
	if !sum.IsInt() || sum.Num().Int64() != 1 {
		t.Fatalf("rational mass lost: %s", sum)
	}
}

func TestPushSumConvergesOnStatic(t *testing.T) {
	g := graph.Complete(8)
	res, err := PushSumEstimate(dynet.NewStatic(g), 0, 1e-9, 3, 500, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("push-sum did not converge: %+v", res)
	}
	if math.Abs(res.Estimate-8) > 0.01 {
		t.Fatalf("estimate = %v, want ~8", res.Estimate)
	}
}

func TestPushSumConvergesUnderChurn(t *testing.T) {
	net, err := dynet.NewTInterval(12, 1, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PushSumEstimate(net, 0, 1e-6, 3, 2000, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("push-sum under churn did not converge: %+v", res)
	}
	if math.Abs(res.Estimate-12) > 0.5 {
		t.Fatalf("estimate = %v, want ~12", res.Estimate)
	}
}

func TestPushSumParamValidation(t *testing.T) {
	g := graph.Complete(3)
	net := dynet.NewStatic(g)
	if _, err := PushSumEstimate(net, 9, 1e-6, 3, 10, runtime.RunSequential); err == nil {
		t.Fatal("bad leader should error")
	}
	if _, err := PushSumEstimate(net, 0, 0, 3, 10, runtime.RunSequential); err == nil {
		t.Fatal("tol=0 should error")
	}
	if _, err := PushSumEstimate(net, 0, 1e-6, 0, 10, runtime.RunSequential); err == nil {
		t.Fatal("patience=0 should error")
	}
	if _, err := PushSumEstimate(net, 0, 1e-6, 1, 0, runtime.RunSequential); err == nil {
		t.Fatal("maxRounds=0 should error")
	}
}

func TestPushSumRoundLimit(t *testing.T) {
	// A two-node path with a huge tolerance demand and tiny round budget:
	// should return unconverged rather than error.
	res, err := PushSumEstimate(dynet.NewStatic(graph.Path(2)), 0, 1e-15, 5, 3, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("cannot converge in 3 rounds at 1e-15")
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
}

func TestOracleCountThreeRelays(t *testing.T) {
	// The oracle algorithm is label-agnostic: it works for any relay
	// count, here k=3.
	net, v1, v2 := restrictedPD2(3, 17, 5)
	count, rounds, err := OracleCount(net, 0, v1, v2, runtime.RunSequential)
	if err != nil {
		t.Fatal(err)
	}
	if count != 1+3+17 || rounds != 2 {
		t.Fatalf("count=%d rounds=%d", count, rounds)
	}
}

// Property: the oracle counter is exact on random restricted PD2 shapes.
func TestOracleCountProperty(t *testing.T) {
	f := func(rawK, rawOuter uint8) bool {
		k := int(rawK%3) + 2
		outer := int(rawOuter%30) + 1
		net, v1, v2 := restrictedPD2(k, outer, 1)
		count, rounds, err := OracleCount(net, 0, v1, v2, runtime.RunSequential)
		if err != nil {
			return false
		}
		return count == 1+k+outer && rounds == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
