// Benchmarks: one testing.B per reproduced artifact, matching the
// per-experiment index in DESIGN.md. Run all of them with
//
//	go test -bench=. -benchmem
//
// The absolute times are machine facts about this implementation; the
// experiment *outcomes* (who wins, where the crossovers fall) are asserted
// inside each benchmark body, so a benchmark run doubles as a verification
// pass of the reproduction.
package anondyn_test

import (
	"context"
	"fmt"
	"testing"

	"anondyn"
	"anondyn/internal/core"
	"anondyn/internal/counting"
	"anondyn/internal/dissemination"
	"anondyn/internal/dynet"
	"anondyn/internal/experiments"
	"anondyn/internal/figures"
	"anondyn/internal/graph"
	"anondyn/internal/kernel"
	"anondyn/internal/runtime"
)

// BenchmarkFigure1Flood re-measures the Figure 1 caption: flooding on the
// reconstructed G(PD)_2 example takes 4 rounds from v0.
func BenchmarkFigure1Flood(b *testing.B) {
	f, err := figures.NewFigure1()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft, err := dynet.FloodTime(f.Net, f.V0, 0, 50)
		if err != nil {
			b.Fatal(err)
		}
		if ft != 4 {
			b.Fatalf("flood time %d, want 4", ft)
		}
	}
}

// BenchmarkFigure2Transform measures the Lemma 1 transformation on the
// Figure 2 instance (build + structural check).
func BenchmarkFigure2Transform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := figures.NewFigure2()
		if err != nil {
			b.Fatal(err)
		}
		if f.Net.N() != 7 {
			b.Fatalf("N = %d", f.Net.N())
		}
	}
}

// BenchmarkFigure3Indist checks the round-0 indistinguishable pair.
func BenchmarkFigure3Indist(b *testing.B) {
	f, err := figures.NewFigure3()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va, err := f.M.LeaderView(1)
		if err != nil {
			b.Fatal(err)
		}
		vb, err := f.MPrime.LeaderView(1)
		if err != nil {
			b.Fatal(err)
		}
		if !va.Equal(vb) {
			b.Fatal("Figure 3 views differ")
		}
	}
}

// BenchmarkFigure4Indist checks the round-1 indistinguishable pair.
func BenchmarkFigure4Indist(b *testing.B) {
	f, err := figures.NewFigure4()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va, err := f.M.LeaderView(2)
		if err != nil {
			b.Fatal(err)
		}
		vb, err := f.MPrime.LeaderView(2)
		if err != nil {
			b.Fatal(err)
		}
		if !va.Equal(vb) {
			b.Fatal("Figure 4 views differ")
		}
	}
}

// BenchmarkLemma2KernelDim measures exact-rank elimination of M_r and
// asserts dim ker = 1, per round index.
func BenchmarkLemma2KernelDim(b *testing.B) {
	for r := 0; r <= 3; r++ {
		r := r
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := kernel.Matrix(r, 2)
				if err != nil {
					b.Fatal(err)
				}
				if dim := len(m.KernelBasis()); dim != 1 {
					b.Fatalf("dim = %d", dim)
				}
			}
		})
	}
}

// BenchmarkLemma3KernelShape measures the closed-form kernel construction
// and its recursion check.
func BenchmarkLemma3KernelShape(b *testing.B) {
	for r := 1; r <= 8; r += 7 {
		r := r
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prev := kernel.ClosedFormKernel(r - 1)
				want := prev.Append(prev).Append(prev.Neg())
				if !kernel.ClosedFormKernel(r).Equal(want) {
					b.Fatal("recursion fails")
				}
			}
		})
	}
}

// BenchmarkLemma4Sums measures the kernel-sum identities.
func BenchmarkLemma4Sums(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for r := 0; r <= 8; r++ {
			k := kernel.ClosedFormKernel(r)
			if k.Sum().Int64() != 1 {
				b.Fatal("Σk != 1")
			}
			if k.SumNegative().Cmp(kernel.KernelSumNegative(r)) != 0 {
				b.Fatal("Σ⁻k mismatch")
			}
		}
	}
}

// BenchmarkTheorem1Sweep builds and verifies the adversarial pair across a
// size sweep.
func BenchmarkTheorem1Sweep(b *testing.B) {
	for _, n := range []int{4, 40, 364, 3280} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pair, err := anondyn.WorstCasePair(n)
				if err != nil {
					b.Fatal(err)
				}
				if err := pair.Verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTheorem2Counter measures the leader-state counter against the
// worst-case adversary and asserts termination exactly at the bound.
func BenchmarkTheorem2Counter(b *testing.B) {
	for _, n := range []int{4, 40, 364} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			want := anondyn.LowerBoundRounds(n)
			for i := 0; i < b.N; i++ {
				res, err := core.WorstCaseCountRounds(n)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != want || res.Count != n {
					b.Fatalf("got (%d, %d), want (%d rounds, count %d)", res.Rounds, res.Count, want, n)
				}
			}
		})
	}
}

// BenchmarkCorollary1Chain measures chain-delayed counting.
func BenchmarkCorollary1Chain(b *testing.B) {
	for _, tc := range []struct{ n, delay int }{{13, 3}, {121, 8}} {
		tc := tc
		b.Run(fmt.Sprintf("n=%d/delay=%d", tc.n, tc.delay), func(b *testing.B) {
			want := core.ChainLowerBoundRounds(tc.n, tc.delay)
			for i := 0; i < b.N; i++ {
				res, err := core.ChainCountRounds(tc.n, tc.delay)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != want {
					b.Fatalf("rounds %d, want %d", res.Rounds, want)
				}
			}
		})
	}
}

// BenchmarkDiscussionOracle measures the degree-oracle O(1) counter across
// sizes; rounds must stay at 2.
func BenchmarkDiscussionOracle(b *testing.B) {
	for _, outer := range []int{9, 81, 729} {
		outer := outer
		b.Run(fmt.Sprintf("outer=%d", outer), func(b *testing.B) {
			inst, err := counting.RestrictedPD2Instance(outer)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count, rounds, err := counting.OracleCount(inst.Net, inst.Leader, inst.V1, inst.V2, runtime.RunSequential)
				if err != nil {
					b.Fatal(err)
				}
				if count != 3+outer || rounds != 2 {
					b.Fatalf("count %d rounds %d", count, rounds)
				}
			}
		})
	}
}

// BenchmarkGapFloodVsCount runs flooding and counting on the same
// worst-case network and asserts the gap's direction.
func BenchmarkGapFloodVsCount(b *testing.B) {
	for _, n := range []int{40, 364} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			wc, err := anondyn.WorstCaseAdversary(n)
			if err != nil {
				b.Fatal(err)
			}
			initial, err := dissemination.SingleSource(wc.Net.N(), int(wc.Layout.Leader), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fl, err := dissemination.Run(wc.Net, initial, dissemination.Unlimited, 100, runtime.RunSequential)
				if err != nil {
					b.Fatal(err)
				}
				cnt, err := core.WorstCaseCountRounds(n)
				if err != nil {
					b.Fatal(err)
				}
				if cnt.Rounds <= fl.Rounds {
					b.Fatalf("no gap: count %d, flood %d", cnt.Rounds, fl.Rounds)
				}
			}
		})
	}
}

// BenchmarkAblationK3 measures the k=3 kernel growth check.
func BenchmarkAblationK3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m3, err := kernel.Matrix(0, 3)
		if err != nil {
			b.Fatal(err)
		}
		if dim := len(m3.KernelBasis()); dim != 4 {
			b.Fatalf("k=3 kernel dim %d, want 4", dim)
		}
	}
}

// BenchmarkAblationStar measures one-round star counting.
func BenchmarkAblationStar(b *testing.B) {
	for _, n := range []int{20, 500} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			star, err := graph.Star(n, 0)
			if err != nil {
				b.Fatal(err)
			}
			net := dynet.NewStatic(star)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count, rounds, err := counting.StarCount(net, 0, runtime.RunSequential)
				if err != nil {
					b.Fatal(err)
				}
				if count != n || rounds != 1 {
					b.Fatalf("count %d rounds %d", count, rounds)
				}
			}
		})
	}
}

// BenchmarkEngines compares the sequential and sharded engines on the same
// workload — an ablation of the execution substrate itself.
func BenchmarkEngines(b *testing.B) {
	for name, run := range map[string]counting.Runner{
		"sequential": runtime.RunSequential,
		"sharded":    runtime.RunSharded,
	} {
		run := run
		b.Run(name, func(b *testing.B) {
			inst, err := counting.RestrictedPD2Instance(81)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := counting.OracleCount(inst.Net, inst.Leader, inst.V1, inst.V2, run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExperimentSuite runs the complete reproduction harness once per
// iteration — the end-to-end cost of re-verifying the whole paper.
func BenchmarkExperimentSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAll(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if !experiments.AllMatch(rows) {
			b.Fatal("mismatch")
		}
	}
}
