package sweep

import (
	"context"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/multigraph"
)

// freshMDBLCount is MDBLCount on fresh state: core.CountOnMultigraph on
// multigraph.Random, with no pooled source, schedule or counter.
func freshMDBLCount(t *testing.T, job Job) Result {
	t.Helper()
	m, err := multigraph.Random(2, job.N, job.Horizon, job.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res := Result{Key: job.Key, Proto: job.Proto, N: job.N, Trial: job.Trial}
	cr, err := core.CountOnMultigraph(m, job.Horizon)
	if err != nil {
		res.Rounds, res.Failed, res.Err = -1, true, err.Error()
		return res
	}
	res.Rounds, res.Count = cr.Rounds, cr.Count
	return res
}

// One scratch runs jobs that grow, shrink, fail and count again; each
// result equals the one fresh state gives, so nothing of a job survives
// into the next.
func TestMDBLScratchReuseMatchesFresh(t *testing.T) {
	s := newMDBLScratch()
	for i, tc := range []struct {
		n, horizon int
		failed     bool
	}{
		{13, 14, false},
		{1093, 14, false}, // grows
		{40, 14, false},   // shrinks
		{13, 14, false},
		{3280, 2, true}, // a horizon too short to count
		{121, 14, false},
		{4, 1, true},
		{364, 14, false},
		{0, 14, true}, // no nodes: no round to count in
		{40, 14, false},
	} {
		job := Job{Key: "reuse", Proto: ProtoMDBLCount, N: tc.n, Trial: i, Horizon: tc.horizon,
			Seed: JobSeed(3, uint64(tc.n), uint64(i))}
		got, err := s.count(job)
		if err != nil {
			t.Fatalf("job %d (n=%d): %v", i, tc.n, err)
		}
		if want := freshMDBLCount(t, job); got != want {
			t.Fatalf("job %d (n=%d): reused scratch gives %+v, fresh state %+v", i, tc.n, got, want)
		}
		if got.Failed != tc.failed {
			t.Fatalf("job %d (n=%d): failed = %v, want %v (%s)", i, tc.n, got.Failed, tc.failed, got.Err)
		}
	}
}

// After one warm-up pass over the six sizes of the bench's mc-campaign
// grid, an MDBLCount job allocates at most once: its source, schedule,
// stream and solver all come from the pool.
func TestMDBLCountAllocsPerJob(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	spec := Spec{Name: "mc-campaign", Proto: ProtoMDBLCount, Sizes: []int{13, 40, 121, 364, 1093, 3280}, Trials: 20, Horizon: 14, Seed: 1}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// AllocsPerRun makes one untimed pass first: the warm-up.
	perPass := testing.AllocsPerRun(3, func() {
		for _, job := range jobs {
			if _, err := MDBLCount(ctx, job); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got := perPass / float64(len(jobs)); got > 1 {
		t.Fatalf("MDBLCount allocates %.2f times per job, want at most 1", got)
	}
}
