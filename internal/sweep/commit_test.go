package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"anondyn/internal/obs"
)

// faultFile is a journal file that passes every call through to the real
// file, records the bytes written and the prefix that a successful Sync
// covered, and fails one chosen call: a short Write returning ENOSPC, or a
// Sync returning EIO.
type faultFile struct {
	file journalFile
	// failWrite and failSync pick the 1-based Write or Sync call that
	// fails; 0 fails none. beforeFault, if non-nil, runs just before that
	// call returns its fault. Set them before the journal is used.
	failWrite, failSync int
	beforeFault         func()

	mu            sync.Mutex
	writes, syncs int
	written       []byte // every byte that reached the file, in order
	synced        int    // len(written) when the last successful Sync returned
	failedSize    int    // len(written) when the fault was returned; -1 before
	callsAfter    int    // Write and Sync calls after the fault
}

// faultJournal opens a fresh journal at path behind a faultFile.
func faultJournal(t *testing.T, path string) (*Journal, *faultFile) {
	t.Helper()
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultFile{file: j.f, failedSize: -1}
	j.f = ff
	return j, ff
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.failedSize >= 0 {
		ff.callsAfter++
	}
	ff.writes++
	short := ff.writes == ff.failWrite
	if short {
		p = p[:len(p)/2]
	}
	n, err := ff.file.Write(p)
	ff.written = append(ff.written, p[:n]...)
	if err == nil && short {
		ff.failedSize = len(ff.written)
		ff.fault()
		err = syscall.ENOSPC
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.failedSize >= 0 {
		ff.callsAfter++
	}
	ff.syncs++
	if ff.syncs == ff.failSync {
		ff.failedSize = len(ff.written)
		ff.fault()
		return syscall.EIO
	}
	if err := ff.file.Sync(); err != nil {
		return err
	}
	ff.synced = len(ff.written)
	return nil
}

func (ff *faultFile) Close() error { return ff.file.Close() }

func (ff *faultFile) fault() {
	if ff.beforeFault != nil {
		ff.beforeFault()
	}
}

// pacer holds fast test jobs back so that a run commits in many small
// batches. The engine queues every finished row without waiting, so jobs
// this fast could otherwise all finish inside the first append and share
// one batch. The job that starts k-th waits until the committer has
// reported k−lead rows, or until the run stops; so at most lead rows are
// queued or in an append at any time, and a job woken by the stop still
// returns its row, which then reaches the committer after the fault.
type pacer struct {
	lead    int64
	started atomic.Int64

	mu       sync.Mutex
	reported int64
	report   chan struct{} // closed and replaced by each report
	waiting  int           // jobs now waiting for a report
	waited   *sync.Cond    // signaled when a job starts waiting
}

func newPacer(lead int) *pacer {
	p := &pacer{lead: int64(lead), report: make(chan struct{})}
	p.waited = sync.NewCond(&p.mu)
	return p
}

// onResult counts one report and wakes the waiting jobs. Call it from
// Options.OnResult.
func (p *pacer) onResult() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reported++
	close(p.report)
	p.report = make(chan struct{})
}

// wrap returns fn behind the pacer.
func (p *pacer) wrap(fn ProtoFunc) ProtoFunc {
	return func(ctx context.Context, job Job) (Result, error) {
		k := p.started.Add(1)
		p.mu.Lock()
		for p.reported < k-p.lead && ctx.Err() == nil {
			report := p.report
			p.waiting++
			p.waited.Broadcast()
			p.mu.Unlock()
			select {
			case <-report:
			case <-ctx.Done():
			}
			p.mu.Lock()
			p.waiting--
		}
		p.mu.Unlock()
		return fn(ctx, job)
	}
}

// awaitWaiting returns once some job waits for a report. As a faultFile's
// beforeFault it holds the fault until a row is sure to follow it: no
// report comes while the failing call runs, so the jobs that may still run
// finish and the next one to start waits, until the stop wakes it.
func (p *pacer) awaitWaiting() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.waiting == 0 {
		p.waited.Wait()
	}
}

// syncedRows returns the journal lines that a successful Sync covered.
func (ff *faultFile) syncedRows() []string {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	rows := strings.SplitAfter(string(ff.written[:ff.synced]), "\n")
	return rows[:len(rows)-1] // the empty piece after the last newline
}

// holdsSynced reports whether r's journal row lies inside the synced bytes.
func (ff *faultFile) holdsSynced(t *testing.T, r Result) bool {
	row, err := json.Marshal(r)
	if err != nil {
		t.Error(err)
		return false
	}
	return slices.Contains(ff.syncedRows(), string(row)+"\n")
}

// Every result the engine reports — to OnResult while the run goes on,
// and in Report.Results when it returns — lies inside the journal bytes
// synced before the report. The batch whose fsync fails is never reported.
func TestCommitReportsOnlySyncedRows(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			j, ff := faultJournal(t, filepath.Join(t.TempDir(), "j.jsonl"))
			defer j.Close()
			// The pacer keeps a batch to at most 2·workers rows, so the 64
			// jobs need more than four fsyncs at every worker count here,
			// and three batches succeed before the fourth fsync fails.
			p := newPacer(2 * workers)
			ff.failSync, ff.beforeFault = 4, p.awaitWaiting
			reported := 0
			onResult := func(r Result) {
				reported++
				p.onResult()
				if !ff.holdsSynced(t, r) {
					t.Errorf("OnResult(%s) before the fsync that covers its row", r.Key)
				}
			}
			rep, err := Run(context.Background(), testJobs(64), p.wrap(double), Options{Workers: workers, Journal: j, OnResult: onResult})
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("want EIO, got %v", err)
			}
			inResults := 0
			for _, r := range rep.Results {
				if r.Key == "" {
					continue
				}
				inResults++
				if !ff.holdsSynced(t, r) {
					t.Errorf("Report.Results holds %s, whose row was never synced", r.Key)
				}
			}
			synced := len(ff.syncedRows())
			if rep.Executed != synced || inResults != synced || reported != synced {
				t.Fatalf("executed %d, in results %d, reported %d; want the %d synced rows",
					rep.Executed, inResults, reported, synced)
			}
		})
	}
}

// The first OnResult blocks until every other job but the last one per
// worker (the tails, which wait for a later release) has returned and been
// queued. Those rows must then share one append.
func TestCommitBatchesQueuedRows(t *testing.T) {
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// workers+1 rows are committed before the tails return: the
			// first batch, and the rest, queued while the first OnResult
			// waits.
			n := 2*workers + 1
			await := func(ch <-chan struct{}, what string) {
				select {
				case <-ch:
				case <-time.After(10 * time.Second):
					t.Errorf("timed out waiting for %s", what)
				}
			}
			var entered atomic.Int64
			tailsIn, release := make(chan struct{}), make(chan struct{})
			fn := func(_ context.Context, job Job) (Result, error) {
				// A worker enters its tail only after it queued its earlier
				// rows; each worker blocks in one tail until the release.
				if k := entered.Add(1); k > int64(n-workers) {
					if k == int64(n) {
						close(tailsIn)
					}
					await(release, "the release of the tail jobs")
				}
				return Result{Rounds: job.Trial}, nil
			}
			col := obs.New()
			j, err := OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"), false)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			j.Observe(col)
			reported, appends := 0, int64(0)
			onResult := func(Result) {
				reported++
				switch reported {
				case 1:
					await(tailsIn, "every worker to reach its tail job")
				case n - workers:
					appends = col.Snapshot().Histograms[obs.SweepJournalAppendNS].Count
					close(release)
				}
			}
			rep, err := Run(context.Background(), testJobs(n), fn, Options{Workers: workers, Journal: j, OnResult: onResult})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Executed != n {
				t.Fatalf("executed %d, want %d", rep.Executed, n)
			}
			if appends > 2 {
				t.Fatalf("the %d rows before the tails took %d appends, want at most 2", n-workers, appends)
			}
		})
	}
}

// A failed journal write or fsync ends writing for the run: Run returns
// the fault, no byte follows the failed call, only synced rows count as
// executed or reach OnResult, and a resume on the same file finishes the
// campaign with the uninterrupted table.
func TestJournalFaultStopsWriting(t *testing.T) {
	spec := Spec{Name: "fault-drill", Proto: "fault-drill", Sizes: []int{4, 6, 8}, Trials: 10, Horizon: 3, Seed: 5}
	Register("fault-drill", func(_ context.Context, job Job) (Result, error) {
		return Result{Rounds: int(uint64(job.Seed) % 97)}, nil
	})
	ref, err := RunCampaign(context.Background(), spec, CampaignOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := Proto(spec.Proto)
	for _, tc := range []struct {
		name                string
		failWrite, failSync int
		fault               error
	}{
		{"short write ENOSPC", 3, 0, syscall.ENOSPC},
		{"sync EIO", 0, 3, syscall.EIO},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			j, ff := faultJournal(t, path)
			// Three workers, so that rows from two others would follow a
			// torn fragment if writing went on after the fault. The pacer
			// keeps a batch to at most six of the 30 rows, so two appends
			// succeed before the third call fails, and rows follow it.
			p := newPacer(6)
			ff.failWrite, ff.failSync, ff.beforeFault = tc.failWrite, tc.failSync, p.awaitWaiting
			reported := 0
			rep, err := Run(context.Background(), jobs, p.wrap(fn), Options{
				Workers: 3, Journal: j, OnResult: func(Result) { reported++; p.onResult() },
			})
			if !errors.Is(err, tc.fault) {
				t.Fatalf("want %v, got %v", tc.fault, err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if ff.callsAfter != 0 || info.Size() != int64(ff.failedSize) {
				t.Fatalf("%d calls and %d bytes after the fault, want none",
					ff.callsAfter, info.Size()-int64(ff.failedSize))
			}
			if synced := len(ff.syncedRows()); rep.Executed != synced || reported != synced {
				t.Fatalf("executed %d, reported %d; want the %d synced rows", rep.Executed, reported, synced)
			}
			resumed, err := RunCampaign(context.Background(), spec, CampaignOptions{Workers: 3, JournalPath: path, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := FormatTable(resumed.Stats), FormatTable(ref.Stats); got != want {
				t.Fatalf("resumed table differs:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// blockedSyncFile is a journal file whose first Sync waits until every
// job's function has returned, for at most 10 s.
type blockedSyncFile struct {
	journalFile
	t        *testing.T
	returned <-chan struct{}
	once     sync.Once
}

func (f *blockedSyncFile) Sync() error {
	f.once.Do(func() {
		select {
		case <-f.returned:
		case <-time.After(10 * time.Second):
			f.t.Error("timed out: the workers waited for the committer's first fsync")
		}
	})
	return f.journalFile.Sync()
}

// No worker waits for the committer: while the run's first fsync hangs,
// every job still runs to the end, and once it returns every row is
// journaled and reported.
func TestCommitNeverBlocksWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 64
			var returned atomic.Int64
			allReturned := make(chan struct{})
			fn := func(ctx context.Context, job Job) (Result, error) {
				res, err := double(ctx, job)
				if returned.Add(1) == n {
					close(allReturned)
				}
				return res, err
			}
			path := filepath.Join(t.TempDir(), "j.jsonl")
			j, err := OpenJournal(path, false)
			if err != nil {
				t.Fatal(err)
			}
			j.f = &blockedSyncFile{journalFile: j.f, t: t, returned: allReturned}
			reported := 0
			rep, err := Run(context.Background(), testJobs(n), fn, Options{
				Workers: workers, Journal: j, OnResult: func(Result) { reported++ },
			})
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			done, err := ReadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(done) != n || rep.Executed != n || reported != n {
				t.Fatalf("journaled %d, executed %d, reported %d; want %d each", len(done), rep.Executed, reported, n)
			}
		})
	}
}
