package sweep

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// testJobs builds n trivial jobs whose protocol doubles the trial index.
func testJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("job/%d", i), Proto: "double", N: 1, Trial: i}
	}
	return jobs
}

func double(_ context.Context, job Job) (Result, error) {
	return Result{Rounds: 2 * job.Trial}, nil
}

func TestRunResultsInJobOrderAnyWorkerCount(t *testing.T) {
	want, err := Run(context.Background(), testJobs(37), double, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 100} {
		got, err := Run(context.Background(), testJobs(37), double, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("workers=%d: results differ from single-worker run", workers)
		}
		if got.Executed != 37 || got.Resumed != 0 {
			t.Fatalf("workers=%d: executed=%d resumed=%d", workers, got.Executed, got.Resumed)
		}
	}
	for i, r := range want.Results {
		if r.Rounds != 2*i || r.Key != fmt.Sprintf("job/%d", i) {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

// Work stealing: a single pathological shard (all slow jobs land on one
// worker's chunk) must still be drained by the other workers. We make the
// first chunk's jobs block until every other job has completed, which can
// only happen if thieves steal the blocked worker's remaining queue.
func TestWorkStealingDrainsSlowShard(t *testing.T) {
	const jobs, workers = 32, 4
	var fastDone atomic.Int64
	fastTotal := int64(jobs - jobs/workers)
	release := make(chan struct{})
	var once sync.Once
	fn := func(ctx context.Context, job Job) (Result, error) {
		if job.Trial < jobs/workers { // the first worker's own chunk
			select {
			case <-release:
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
			return Result{Rounds: job.Trial}, nil
		}
		if fastDone.Add(1) == fastTotal {
			once.Do(func() { close(release) })
		}
		return Result{Rounds: job.Trial}, nil
	}
	rep, err := Run(context.Background(), testJobs(jobs), fn, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != jobs {
		t.Fatalf("executed %d, want %d", rep.Executed, jobs)
	}
}

func TestRunPanicIsolationAndRetry(t *testing.T) {
	var calls atomic.Int64
	flaky := func(_ context.Context, job Job) (Result, error) {
		if job.Trial == 3 && calls.Add(1) == 1 {
			panic("transient protocol bug")
		}
		return Result{Rounds: job.Trial}, nil
	}
	// Without retries the panic aborts the campaign as a typed error.
	calls.Store(0)
	_, err := Run(context.Background(), testJobs(8), flaky, Options{Workers: 2})
	var pe *JobPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want JobPanicError, got %v", err)
	}
	if pe.Job.Trial != 3 || pe.Value != "transient protocol bug" || len(pe.Stack) == 0 {
		t.Fatalf("panic error = %+v", pe)
	}
	// With one retry the transient panic is absorbed.
	calls.Store(0)
	rep, err := Run(context.Background(), testJobs(8), flaky, Options{Workers: 2, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 8 || rep.Results[3].Rounds != 3 {
		t.Fatalf("retry run = %+v", rep)
	}
}

func TestRunBoundedRetriesExhaust(t *testing.T) {
	var calls atomic.Int64
	broken := func(_ context.Context, job Job) (Result, error) {
		if job.Trial == 0 {
			calls.Add(1)
			return Result{}, errors.New("deterministic fault")
		}
		return Result{}, nil
	}
	_, err := Run(context.Background(), testJobs(1), broken, Options{Workers: 1, MaxRetries: 2})
	if err == nil || calls.Load() != 3 {
		t.Fatalf("err=%v calls=%d, want error after 3 attempts", err, calls.Load())
	}
}

func TestRunCancellationStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// The count and the cancel are one step as the other worker sees them:
	// without the mutex, a worker preempted between drawing 3 and calling
	// cancel lets the other worker drain every job first.
	var (
		mu       sync.Mutex
		executed int
	)
	fn := func(ctx context.Context, job Job) (Result, error) {
		mu.Lock()
		defer mu.Unlock()
		executed++
		if executed == 3 {
			cancel()
		}
		return Result{Rounds: job.Trial}, nil
	}
	rep, err := Run(ctx, testJobs(1000), fn, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep.Executed >= 1000 {
		t.Fatal("cancellation did not stop the run")
	}
}

func TestRunMaxJobsLimit(t *testing.T) {
	rep, err := Run(context.Background(), testJobs(20), double, Options{Workers: 1, MaxJobs: 5})
	if !errors.Is(err, ErrJobLimit) {
		t.Fatalf("want ErrJobLimit, got %v", err)
	}
	if rep.Executed != 5 {
		t.Fatalf("executed %d, want exactly 5", rep.Executed)
	}
}

func TestRunDoneSkipsJobs(t *testing.T) {
	jobs := testJobs(10)
	var executed sync.Map
	fn := func(_ context.Context, job Job) (Result, error) {
		executed.Store(job.Key, true)
		return Result{Rounds: 2 * job.Trial}, nil
	}
	done := map[string]Result{
		jobs[2].Key: {Rounds: 4},
		jobs[7].Key: {Rounds: 14},
	}
	rep, err := Run(context.Background(), jobs, fn, Options{Workers: 3, Done: done})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 8 || rep.Resumed != 2 {
		t.Fatalf("executed=%d resumed=%d", rep.Executed, rep.Resumed)
	}
	for _, key := range []string{jobs[2].Key, jobs[7].Key} {
		if _, ran := executed.Load(key); ran {
			t.Fatalf("done job %s was re-executed", key)
		}
	}
	// Resumed rows are normalized: identity fields restored from the job.
	if rep.Results[2].Key != jobs[2].Key || rep.Results[2].Rounds != 4 {
		t.Fatalf("resumed result = %+v", rep.Results[2])
	}
}

func TestRunRejectsDuplicateKeys(t *testing.T) {
	jobs := testJobs(3)
	jobs[2].Key = jobs[0].Key
	if _, err := Run(context.Background(), jobs, double, Options{}); err == nil {
		t.Fatal("duplicate keys must be rejected")
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(context.Background(), 100, 4, func(_ context.Context, i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d", sum.Load())
	}
	wantErr := errors.New("boom")
	err := ForEach(context.Background(), 10, 2, func(_ context.Context, i int) error {
		if i == 5 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("want boom, got %v", err)
	}
	if err := ForEach(context.Background(), 0, 2, nil); err != nil {
		t.Fatalf("empty ForEach: %v", err)
	}
}

// The engine's determinism contract end to end on a real protocol: the
// same spec produces identical aggregated stats at any worker count.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	spec, _ := Builtin("smoke")
	base, err := RunCampaign(context.Background(), spec, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 5} {
		got, err := RunCampaign(context.Background(), spec, CampaignOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if FormatTable(got.Stats) != FormatTable(base.Stats) {
			t.Fatalf("workers=%d: stats differ:\n%s\nvs\n%s", w, FormatTable(got.Stats), FormatTable(base.Stats))
		}
		if !reflect.DeepEqual(got.Results, base.Results) {
			t.Fatalf("workers=%d: per-job results differ", w)
		}
	}
}

// mdblDist runs an MDBLCount campaign over spec and summarizes the trials'
// rounds, an unresolved trial counting as a failure.
func mdblDist(t *testing.T, spec Spec, opts Options) (*Report, Dist) {
	t.Helper()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), jobs, MDBLCount, opts)
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([]int, len(rep.Results))
	for i, r := range rep.Results {
		rounds[i] = r.Rounds
		if r.Failed {
			rounds[i] = -1
		}
	}
	return rep, Distribution(rounds)
}

// TestGoldenSeedRegression pins the Monte-Carlo numbers for one fixed
// (campaign seed, grid) point. Per-trial seeds derive from
// JobSeed(seed, n, trial); any change to that derivation — or to how
// MDBLCount consumes its RNG — shows up here as a different distribution,
// which would mean resumed shards no longer reproduce old journals.
func TestGoldenSeedRegression(t *testing.T) {
	spec := Spec{Name: "golden", Proto: ProtoMDBLCount, Sizes: []int{10}, Trials: 20, Horizon: 8, Seed: 42}
	_, got := mdblDist(t, spec, Options{})
	want := Dist{Trials: 20, Mean: 2.40, Min: 2, Max: 3, P50: 2, P90: 3, P99: 3}
	if got != want {
		t.Fatalf("golden distribution drifted:\n got %+v\nwant %+v", got, want)
	}
}

// TestCampaignRoundsPinned pins the rounds of the bench's mc-campaign grid
// cut to trials 0–49: for each size, the sum and the maximum of the rounds
// its counts took. The bench checks each job's count but not its rounds,
// so a change to the schedule's draws would pass it and fail here.
func TestCampaignRoundsPinned(t *testing.T) {
	spec := Spec{Name: "mc-campaign", Proto: ProtoMDBLCount, Sizes: []int{13, 40, 121, 364, 1093, 3280}, Trials: 50, Horizon: 14, Seed: 1}
	rep, _ := mdblDist(t, spec, Options{Workers: 2})
	type rounds struct{ sum, max int }
	want := map[int]rounds{13: {123, 3}, 40: {152, 4}, 121: {199, 4}, 364: {247, 5}, 1093: {272, 6}, 3280: {302, 7}}
	got := make(map[int]rounds)
	for _, r := range rep.Results {
		if r.Failed {
			t.Fatalf("%s: %s", r.Key, r.Err)
		}
		g := got[r.N]
		g.sum += r.Rounds
		g.max = max(g.max, r.Rounds)
		got[r.N] = g
	}
	if !maps.Equal(got, want) {
		t.Fatalf("rounds per size (sum, max) = %v, want %v", got, want)
	}
}

// A resumed shard must reproduce the original run's numbers exactly: the
// per-trial results depend only on (campaign seed, size, trial index),
// never on which process or worker executes the trial.
func TestResumedShardReproducesStudy(t *testing.T) {
	spec := Spec{Name: "shard", Proto: ProtoMDBLCount, Sizes: []int{10}, Trials: 30, Horizon: 8, Seed: 42}
	full, fullDist := mdblDist(t, spec, Options{Workers: 4})
	// Resume-style shard: the first 20 trials come from a "previous run's
	// journal"; only the tail executes here, at a different worker count.
	done := make(map[string]Result, 20)
	for _, r := range full.Results[:20] {
		done[r.Key] = r
	}
	shard, shardDist := mdblDist(t, spec, Options{Workers: 2, Done: done})
	if shard.Resumed != 20 || shard.Executed != 10 {
		t.Fatalf("resumed=%d executed=%d", shard.Resumed, shard.Executed)
	}
	if !reflect.DeepEqual(shard.Results, full.Results) {
		t.Fatal("resumed shard diverged from the original run")
	}
	// And the whole study, re-run on one worker, agrees too.
	if _, mono := mdblDist(t, spec, Options{Workers: 1}); mono != shardDist || mono != fullDist {
		t.Fatalf("one-worker distribution %+v != sharded %+v", mono, shardDist)
	}
}
