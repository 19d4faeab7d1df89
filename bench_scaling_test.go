// Scaling benchmarks: how the reproduction's algorithmic cores behave as
// instances grow. These complement the per-artifact benchmarks in
// bench_test.go with size sweeps.
package anondyn_test

import (
	"context"
	"fmt"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"testing"

	"anondyn/internal/chainnet"
	"anondyn/internal/core"
	"anondyn/internal/counting"
	"anondyn/internal/dynet"
	"anondyn/internal/kernel"
	"anondyn/internal/multigraph"
	"anondyn/internal/runtime"
	"anondyn/internal/sweep"
)

// BenchmarkIntervalSolverScaling measures the O(3^t) interval solver over
// growing view depths on worst-case schedules.
func BenchmarkIntervalSolverScaling(b *testing.B) {
	for _, rounds := range []int{2, 4, 6, 8} {
		rounds := rounds
		b.Run(fmt.Sprintf("t=%d", rounds), func(b *testing.B) {
			n := core.MinSizeForRounds(rounds)
			pair, err := core.IndistinguishablePair(n, rounds)
			if err != nil {
				b.Fatal(err)
			}
			view, err := pair.M.LeaderView(rounds)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iv, err := kernel.SolveCountInterval(view)
				if err != nil {
					b.Fatal(err)
				}
				if iv.Unique() {
					b.Fatal("worst-case view should stay ambiguous")
				}
			}
		})
	}
}

// BenchmarkEnumerateSizesK3 measures the general-k enumerator on small
// k = 3 instances.
func BenchmarkEnumerateSizesK3(b *testing.B) {
	mg, err := multigraph.Random(3, 3, 2, 7)
	if err != nil {
		b.Fatal(err)
	}
	view, err := mg.LeaderView(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kernel.EnumerateSizes(view, 3, kernel.EnumLimits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeaderView measures leader-state reconstruction over growing
// schedules.
func BenchmarkLeaderView(b *testing.B) {
	for _, w := range []int{10, 100, 1000} {
		w := w
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			mg, err := multigraph.Random(2, w, 6, 3)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mg.LeaderView(6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChainEndToEnd measures the full message-passing Corollary 1
// system.
func BenchmarkChainEndToEnd(b *testing.B) {
	for _, tc := range []struct{ n, chain int }{{13, 2}, {40, 5}} {
		tc := tc
		b.Run(fmt.Sprintf("n=%d/chain=%d", tc.n, tc.chain), func(b *testing.B) {
			bound := core.LowerBoundRounds(tc.n)
			for i := 0; i < b.N; i++ {
				nw, err := chainnet.Build(tc.n, tc.chain)
				if err != nil {
					b.Fatal(err)
				}
				res, err := chainnet.RunCount(nw, bound+nw.Delay()+5, runtime.RunSequential)
				if err != nil {
					b.Fatal(err)
				}
				if res.Count != tc.n {
					b.Fatalf("count %d", res.Count)
				}
			}
		})
	}
}

// BenchmarkFloodDelayingAdversary measures the maximally-delaying oblivious
// adversary.
func BenchmarkFloodDelayingAdversary(b *testing.B) {
	for _, n := range []int{10, 100} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			fd, err := dynet.NewFloodDelaying(n, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft, err := dynet.FloodTime(fd, 0, 0, 5*n)
				if err != nil {
					b.Fatal(err)
				}
				if ft != n-1 {
					b.Fatalf("flood time %d", ft)
				}
			}
		})
	}
}

// BenchmarkWorstCasePairConstruction measures building + verifying the
// Lemma 5 adversarial pair at the largest bench size.
func BenchmarkWorstCasePairConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pair, err := core.WorstCasePair(3280)
		if err != nil {
			b.Fatal(err)
		}
		if pair.Rounds != 8 {
			b.Fatalf("rounds %d", pair.Rounds)
		}
	}
}

// BenchmarkIncrementalVsBatch compares the incremental solver against
// re-solving from scratch each round, over a 6-round worst-case view.
func BenchmarkIncrementalVsBatch(b *testing.B) {
	n := core.MinSizeForRounds(6)
	pair, err := core.IndistinguishablePair(n, 6)
	if err != nil {
		b.Fatal(err)
	}
	view, err := pair.M.LeaderView(6)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := pair.M.NewObservationStream()
	if err != nil {
		b.Fatal(err)
	}
	indexed := make([][]multigraph.IndexedObsEntry, 6)
	for r := range indexed {
		entries, err := stream.Next()
		if err != nil {
			b.Fatal(err)
		}
		indexed[r] = slices.Clone(entries)
	}
	b.Run("batch-per-round", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for rounds := 1; rounds <= 6; rounds++ {
				if _, err := kernel.SolveCountInterval(view[:rounds]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver := kernel.NewIncrementalSolver()
			for _, entries := range indexed {
				if _, err := solver.AddRoundIndexed(entries); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSweepEngine measures campaign throughput (jobs/sec) on the
// work-stealing pool at 1, 4, and NumCPU workers — the baseline every
// future scaling PR (distributed backends, caching, larger grids) must
// beat — and at 2 workers with an fsynced journal, as `sweep -out` runs.
// The workload is the Monte-Carlo counting trial behind the figures.
func BenchmarkSweepEngine(b *testing.B) {
	var workerCounts []int
	for _, w := range []int{1, 4, goruntime.NumCPU()} {
		dup := false
		for _, seen := range workerCounts {
			dup = dup || seen == w
		}
		if !dup {
			workerCounts = append(workerCounts, w)
		}
	}
	spec := sweep.Spec{
		Name: "bench", Proto: sweep.ProtoMDBLCount,
		Sizes: []int{40, 121}, Trials: 16, Horizon: 10, Seed: 7,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerCounts {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := sweep.Run(context.Background(), jobs, sweep.MDBLCount, sweep.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Executed != len(jobs) {
					b.Fatalf("executed %d/%d", rep.Executed, len(jobs))
				}
			}
			b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
	b.Run("workers=2,journal", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "journal.jsonl")
		for i := 0; i < b.N; i++ {
			j, err := sweep.OpenJournal(path, false)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := sweep.Run(context.Background(), jobs, sweep.MDBLCount, sweep.Options{Workers: 2, Journal: j})
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				b.Fatal(err)
			}
			if rep.Executed != len(jobs) {
				b.Fatalf("executed %d/%d", rep.Executed, len(jobs))
			}
		}
		b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
}

// BenchmarkMDBLCountJob measures one Monte-Carlo job: sweep.MDBLCount over
// the 6,000 jobs of the bench's mc-campaign spec (bench/workload.go) at
// seed 1, on the calling goroutine, with no pool and no journal. One op is
// the whole campaign; µs/job is its time per job.
func BenchmarkMDBLCountJob(b *testing.B) {
	spec := sweep.Spec{
		Name: "mc-campaign", Proto: sweep.ProtoMDBLCount,
		Sizes: []int{13, 40, 121, 364, 1093, 3280}, Trials: 1000, Horizon: 14, Seed: 1,
	}
	jobs, err := spec.Jobs()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, job := range jobs {
			res, err := sweep.MDBLCount(ctx, job)
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed {
				b.Fatalf("%s: %s", job.Key, res.Err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(jobs)), "µs/job")
}

// BenchmarkWorstCaseCount runs the counts of the benchmark's
// incremental-worstcase and leaderstate-worstcase workloads
// (bench/workload.go): Incremental Counting on WorstCaseInstance(16) on the
// sequential engine, and the leader-state counter on
// WorstCaseInstance(88573) on the sharded engine. The instance is built
// outside the timer, so allocs/op is what one count allocates.
func BenchmarkWorstCaseCount(b *testing.B) {
	for _, tc := range []struct {
		algo      string
		w, rounds int
		run       runtime.Engine
	}{
		{"incremental", 16, 41646, runtime.RunSequential},
		{"leaderstate", 88573, 13, runtime.RunSharded},
	} {
		b.Run(fmt.Sprintf("%s/w=%d", tc.algo, tc.w), func(b *testing.B) {
			inst, err := counting.WorstCaseInstance(tc.w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := counting.RunAlgorithm(tc.algo, inst, tc.run)
				if err != nil {
					b.Fatal(err)
				}
				if res.Count != tc.w+3 || res.Rounds != tc.rounds {
					b.Fatalf("counted %d in %d rounds, want %d in %d", res.Count, res.Rounds, tc.w+3, tc.rounds)
				}
			}
		})
	}
}

// BenchmarkHistTreeCycleCount runs the count of the benchmark's
// histtree-cycle workload (bench/workload.go): the history-tree counter on
// CycleInstance(512) on the sequential engine. The instance is built
// outside the timer, so allocs/op and B/op are what one count allocates.
func BenchmarkHistTreeCycleCount(b *testing.B) {
	inst, err := counting.CycleInstance(512)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := counting.RunAlgorithm("histtree", inst, runtime.RunSequential)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != 512 || res.Rounds != 1280 {
			b.Fatalf("counted %d in %d rounds, want 512 in 1280", res.Count, res.Rounds)
		}
	}
}

// BenchmarkStructuredMatVec measures the matrix-free M_r product at depths
// the dense matrix cannot reach.
func BenchmarkStructuredMatVec(b *testing.B) {
	for _, r := range []int{6, 8, 10} {
		r := r
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			k := kernel.ClosedFormKernel(r)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prod, err := kernel.StructuredMulVec(r, 2, k)
				if err != nil {
					b.Fatal(err)
				}
				if !prod.IsZero() {
					b.Fatal("M_r k_r != 0")
				}
			}
		})
	}
}
