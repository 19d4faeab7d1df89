package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"anondyn/internal/core"
	"anondyn/internal/multigraph"
)

// Job is one independent unit of campaign work. Jobs carry everything a
// protocol function needs, so any worker (in this process or a resumed one)
// executes a job identically.
type Job struct {
	// Key identifies the job across runs; the journal is idempotent by it.
	Key string `json:"key"`
	// Proto names the protocol function.
	Proto string `json:"proto"`
	// N is the network size.
	N int `json:"n"`
	// Trial is the trial index within (Proto, N).
	Trial int `json:"trial"`
	// Horizon bounds the trial's rounds.
	Horizon int `json:"horizon"`
	// Seed is the job's private RNG seed, derived via JobSeed.
	Seed int64 `json:"seed"`
}

// Result is one completed job, as stored in the journal. It deliberately
// carries no timestamps or worker identifiers: a Result is a pure function
// of its Job, which is what makes resumed and fresh runs byte-identical.
type Result struct {
	Key   string `json:"key"`
	Proto string `json:"proto"`
	N     int    `json:"n"`
	Trial int    `json:"trial"`
	// Rounds is the measured rounds-to-completion, -1 when Failed.
	Rounds int `json:"rounds"`
	// Count is the protocol's output (the counted size), when it has one.
	Count int `json:"count,omitempty"`
	// Failed marks a protocol-level failure (e.g. the count never resolved
	// within the horizon) — a measurement, not an execution error.
	Failed bool `json:"failed,omitempty"`
	// Err describes the protocol-level failure.
	Err string `json:"err,omitempty"`
}

// ProtoFunc executes one job. A returned error is an execution fault (the
// engine retries it up to Options.MaxRetries, then aborts the campaign);
// protocol-level failure is reported by Result.Failed instead, and counts
// as a completed measurement.
type ProtoFunc func(ctx context.Context, job Job) (Result, error)

// ProtoMDBLCount is the registered name of MDBLCount.
const ProtoMDBLCount = "mdbl-count"

// ProtoMDBLWorst is the registered name of MDBLWorstCase.
const ProtoMDBLWorst = "mdbl-worstcase"

var (
	registryMu sync.RWMutex
	registry   = map[string]ProtoFunc{
		ProtoMDBLCount: MDBLCount,
		ProtoMDBLWorst: MDBLWorstCase,
	}
)

// Register adds a protocol function under name, overwriting any previous
// registration, so campaigns can sweep caller-defined workloads.
func Register(name string, fn ProtoFunc) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = fn
}

// Proto looks up a registered protocol function.
func Proto(name string) (ProtoFunc, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	fn, ok := registry[name]
	return fn, ok
}

// MDBLCount runs the leader-state counter on one uniformly random ℳ(DBL)₂
// schedule of size job.N drawn from job.Seed — the Monte-Carlo trial behind
// the S1 study. An unresolved count within the horizon is a Failed result;
// a wrong count is an execution fault (it would falsify Theorem 2's
// correctness side). The job borrows its source, schedule and counter
// from a pool (see mdblScratch), so in steady state it allocates nothing.
func MDBLCount(ctx context.Context, job Job) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s := mdblScratchPool.Get().(*mdblScratch)
	defer mdblScratchPool.Put(s)
	return s.count(job)
}

// mdblScratch is what one MDBLCount job draws and counts with. Every job
// starts from a full reset — the source is reseeded, the schedule redrawn,
// the counter's stream and solver reset — so a job that failed or panicked
// leaves nothing behind for the next one.
type mdblScratch struct {
	src rand.Source
	m   multigraph.Multigraph
	c   core.Counter
}

var mdblScratchPool = sync.Pool{New: func() any { return newMDBLScratch() }}

func newMDBLScratch() *mdblScratch { return &mdblScratch{src: rand.NewSource(0)} }

// count is MDBLCount on s. Seed gives the source the state of
// rand.NewSource(job.Seed), so the schedule is multigraph.Random's.
func (s *mdblScratch) count(job Job) (Result, error) {
	s.src.Seed(job.Seed)
	if err := s.m.Redraw(2, job.N, job.Horizon, s.src); err != nil {
		return Result{}, err
	}
	res := Result{Key: job.Key, Proto: job.Proto, N: job.N, Trial: job.Trial}
	cr, err := s.c.Count(&s.m, job.Horizon)
	if err != nil {
		res.Rounds = -1
		res.Failed = true
		res.Err = err.Error()
		return res, nil
	}
	if cr.Count != job.N {
		return Result{}, fmt.Errorf("sweep: %s counted %d on a size-%d schedule", job.Key, cr.Count, job.N)
	}
	res.Rounds = cr.Rounds
	res.Count = cr.Count
	return res, nil
}

// MDBLWorstCase measures the counter against the kernel-tuned adversarial
// schedule for size job.N. It is deterministic (the seed is unused), so
// campaigns pair it with MDBLCount to put the worst case next to the
// average case in one journal.
func MDBLWorstCase(ctx context.Context, job Job) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	cr, err := core.WorstCaseCountRounds(job.N)
	if err != nil {
		return Result{}, err
	}
	if cr.Count != job.N {
		return Result{}, fmt.Errorf("sweep: %s worst-case counted %d on size %d", job.Key, cr.Count, job.N)
	}
	return Result{
		Key: job.Key, Proto: job.Proto, N: job.N, Trial: job.Trial,
		Rounds: cr.Rounds, Count: cr.Count,
	}, nil
}
