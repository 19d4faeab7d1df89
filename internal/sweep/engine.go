package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"anondyn/internal/obs"
)

// Options tunes one engine run.
type Options struct {
	// Workers sets the pool size; <= 0 means GOMAXPROCS. Worker count
	// never affects results, only wall-clock time: every job's outcome is
	// a pure function of the job itself.
	Workers int
	// MaxRetries is how many times a job is re-attempted after an
	// execution fault (an error or panic from the protocol function)
	// before the fault aborts the campaign. 0 means fail on the first
	// fault. Context cancellation is never retried.
	MaxRetries int
	// Journal, if non-nil, receives every job completed by this run. The
	// run's committer appends the rows that finished since its last write
	// as one batch, synced per batch, and reports each job only after the
	// fsync that covers its row. Workers never wait for these appends.
	// Jobs satisfied from Done are not re-appended — the journal is
	// append-only and idempotent by job key.
	Journal *Journal
	// Done holds results of jobs completed by a previous run (normally
	// ReadJournal's output). Matching jobs are not re-executed.
	Done map[string]Result
	// MaxJobs, if positive, stops the run after this many jobs have been
	// executed by this process (resumed jobs do not count). The run then
	// fails with ErrJobLimit; the journal keeps what completed. It exists
	// to drill the kill/resume path deterministically.
	MaxJobs int
	// OnResult, if non-nil, observes each executed result, reported after
	// the fsync that covers its journal row. Calls come from the run's one
	// committer goroutine, so they are serialized, and arrive in commit
	// order (the order jobs finished), not job order.
	OnResult func(Result)
	// Obs, if non-nil, receives engine metrics (queue depth, executed
	// jobs, retries, per-job wall time). Nil falls back to the
	// process-wide collector (obs.Global), which is nil — and therefore
	// free — unless the process opted in.
	Obs *obs.Collector
}

// ErrJobLimit reports that Options.MaxJobs stopped the run early.
var ErrJobLimit = errors.New("sweep: job limit reached")

// JobPanicError reports that a protocol function panicked. The engine
// isolates the panic to the offending job: it is retried like any other
// execution fault, and exhausting retries aborts the campaign with this
// error instead of crashing the process.
type JobPanicError struct {
	// Job is the job whose protocol function panicked.
	Job Job
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, for diagnostics.
	Stack []byte
}

func (e *JobPanicError) Error() string {
	return fmt.Sprintf("sweep: job %s panicked: %v", e.Job.Key, e.Value)
}

// Report summarizes a Run.
type Report struct {
	// Results holds one result per job, in job order. Complete only when
	// Run returned nil; on error it is partial and positions of
	// unfinished jobs hold zero Results.
	Results []Result
	// Executed counts jobs run by this process and committed: with a
	// journal, those whose rows were synced.
	Executed int
	// Resumed counts jobs satisfied from Options.Done.
	Resumed int
}

// Run executes the jobs on a work-stealing worker pool and returns their
// results in job order. Each worker owns a shard of the job list and, when
// its shard drains, steals from the back of the fullest neighbor — so an
// uneven grid (one slow size, many fast ones) still saturates the pool.
//
// The first unrecoverable fault (a protocol error or panic surviving
// MaxRetries, a journal write failure, or the context being canceled)
// stops the run: no new jobs start, in-flight jobs finish or observe the
// cancellation, and the fault is returned after all workers have joined.
// A context canceled while the workers run is reported even when every
// job had already finished: the error then counts all jobs as done, and
// Report.Results is complete. Jobs reported before the fault are already
// in the journal, which is what makes -resume safe after SIGKILL, not just
// after clean shutdown.
//
// Workers hand each finished job to one committer goroutine and start
// their next jobs at once: the queue between them has room for every
// pending job. The committer journals every queued row as one batch (see
// Options.Journal), so a batch is whatever finished while its previous
// append ran, and only then records, counts and reports those jobs. After
// a journal failure it keeps draining its queue without writing or
// reporting.
func Run(ctx context.Context, jobs []Job, fn ProtoFunc, opts Options) (*Report, error) {
	rep := &Report{Results: make([]Result, len(jobs))}
	keys := make(map[string]int, len(jobs))
	var pending []int
	for i, job := range jobs {
		if job.Key == "" {
			return rep, fmt.Errorf("sweep: job %d has an empty key", i)
		}
		if prev, dup := keys[job.Key]; dup {
			return rep, fmt.Errorf("sweep: jobs %d and %d share key %s", prev, i, job.Key)
		}
		keys[job.Key] = i
		if r, ok := opts.Done[job.Key]; ok {
			rep.Results[i] = normalize(r, job)
			rep.Resumed++
			continue
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return rep, ctx.Err()
	}

	e := &engine{
		jobs: jobs, fn: fn, opts: opts, results: rep.Results,
		m: newEngineMetrics(opts.Obs),
	}
	e.ctx, e.cancel = context.WithCancel(ctx)
	defer e.cancel()
	// Queue depth starts at the pending count and drains to zero (or
	// freezes where a fault stopped the run).
	e.m.queueDepth.Set(int64(len(pending)))

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	e.shards = make([]shard, workers)
	for i, idx := range pending {
		s := &e.shards[i*workers/len(pending)]
		s.queue = append(s.queue, idx)
	}

	// One slot per pending job: each sends at most one row, so no worker
	// ever waits for the committer, however long an fsync takes. A slot is
	// one finished row (96 bytes on 64-bit), the same order of memory as
	// Report.Results.
	e.commits = make(chan finished, len(pending))
	committed := make(chan struct{})
	go func() {
		defer close(committed)
		e.commit()
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.work(w)
		}(w)
	}
	wg.Wait()
	close(e.commits)
	<-committed

	rep.Executed = e.completed
	if err := e.err(); err != nil {
		return rep, fmt.Errorf("sweep: stopped after %d/%d jobs: %w",
			rep.Executed+rep.Resumed, len(jobs), err)
	}
	return rep, nil
}

// shard is one worker's mutex-protected deque of job indices. The owner
// pops from the front; thieves take from the back, where the stolen work
// is farthest from what the owner touches next.
type shard struct {
	mu    sync.Mutex
	queue []int
}

func (s *shard) popFront() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return 0, false
	}
	idx := s.queue[0]
	s.queue = s.queue[1:]
	return idx, true
}

func (s *shard) popBack() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return 0, false
	}
	idx := s.queue[len(s.queue)-1]
	s.queue = s.queue[:len(s.queue)-1]
	return idx, true
}

type engine struct {
	jobs    []Job
	fn      ProtoFunc
	opts    Options
	results []Result
	shards  []shard
	m       engineMetrics

	ctx    context.Context
	cancel context.CancelFunc
	// started gates Options.MaxJobs.
	started atomic.Int64
	// commits carries finished jobs from the workers to the committer.
	commits chan finished
	// completed counts the results the committer recorded; only the
	// committer touches it until Run has waited for it.
	completed int

	mu       sync.Mutex
	firstErr error
}

// finished is a job's normalized result on its way to the committer.
type finished struct {
	idx int
	res Result
}

// fail records the first fault and stops the run.
func (e *engine) fail(err error) {
	e.mu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.mu.Unlock()
	e.cancel()
}

func (e *engine) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstErr
}

// work drains worker w's own shard, then steals; it exits when every shard
// is empty (jobs never spawn jobs, so empty-everywhere means done) or the
// run is stopped.
func (e *engine) work(w int) {
	for {
		if err := e.ctx.Err(); err != nil {
			e.fail(err) // no-op when the stop began with an earlier fault
			return
		}
		idx, ok := e.shards[w].popFront()
		if !ok {
			idx, ok = e.steal(w)
		}
		if !ok {
			return
		}
		if !e.runJob(idx) {
			return
		}
	}
}

func (e *engine) steal(w int) (int, bool) {
	for off := 1; off < len(e.shards); off++ {
		if idx, ok := e.shards[(w+off)%len(e.shards)].popBack(); ok {
			return idx, true
		}
	}
	return 0, false
}

// runJob executes one job with bounded retries; it reports whether the
// worker should keep going.
func (e *engine) runJob(idx int) bool {
	if n := e.started.Add(1); e.opts.MaxJobs > 0 && n > int64(e.opts.MaxJobs) {
		e.fail(ErrJobLimit)
		return false
	}
	job := e.jobs[idx]
	var lastErr error
	for attempt := 0; attempt <= e.opts.MaxRetries; attempt++ {
		if err := e.ctx.Err(); err != nil {
			e.fail(err)
			return false
		}
		if attempt > 0 {
			e.m.retries.Inc()
		}
		jobStart := e.m.jobNS.Start()
		res, err := guarded(e.ctx, e.fn, job)
		e.m.jobNS.Stop(jobStart)
		if err == nil {
			e.commits <- finished{idx, normalize(res, job)}
			return true
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.fail(err)
			return false
		}
		lastErr = err
	}
	e.fail(fmt.Errorf("sweep: job %s failed after %d attempts: %w",
		job.Key, e.opts.MaxRetries+1, lastErr))
	return false
}

// commit is the run's committer (see Run). After a failed append it keeps
// receiving, and the journal refuses every later append, so nothing more
// is written, recorded or reported.
func (e *engine) commit() {
	var idxs []int
	var rows []Result
	for f := range e.commits {
		idxs, rows = append(idxs[:0], f.idx), append(rows[:0], f.res)
		// Take the rows queued now: those that finished while the last
		// append ran. The committer is the only receiver, so none of these
		// receives blocks.
		for n := len(e.commits); n > 0; n-- {
			f := <-e.commits
			idxs, rows = append(idxs, f.idx), append(rows, f.res)
		}
		if e.opts.Journal != nil {
			if err := e.opts.Journal.Append(rows...); err != nil {
				e.fail(err)
				continue
			}
		}
		for i, res := range rows {
			e.results[idxs[i]] = res
			e.completed++
			e.m.jobs.Inc()
			e.m.queueDepth.Add(-1)
			if e.opts.OnResult != nil {
				e.opts.OnResult(res)
			}
		}
	}
}

// guarded invokes fn, converting a panic into a *JobPanicError so one bad
// job cannot take down the campaign (or the caller's process).
func guarded(ctx context.Context, fn ProtoFunc, job Job) (res Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = Result{}, &JobPanicError{Job: job, Value: rec, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, job)
}

// normalize stamps the job's identity onto its result, so journal rows
// always self-identify even if a protocol function forgets the bookkeeping
// fields.
func normalize(r Result, job Job) Result {
	r.Key, r.Proto, r.N, r.Trial = job.Key, job.Proto, job.N, job.Trial
	return r
}

// ForEach runs fn(i) for i in [0, n) on the work-stealing pool and returns
// the first error. It is the engine's loop-shaped face: experiment sweeps
// that iterate a size grid use it to gain parallelism without adopting the
// journal machinery.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("i=%d", i), Trial: i}
	}
	_, err := Run(ctx, jobs, func(ctx context.Context, job Job) (Result, error) {
		return Result{}, fn(ctx, job.Trial)
	}, Options{Workers: workers})
	return err
}
