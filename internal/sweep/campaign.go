package sweep

import (
	"context"
	"fmt"
	"time"

	"anondyn/internal/obs"
)

// CampaignOptions tunes RunCampaign.
type CampaignOptions struct {
	// Workers, MaxRetries, MaxJobs, OnResult, and Obs are passed to Run.
	// Obs additionally observes the journal's write+fsync latency, one
	// observation per batch of rows the committer syncs.
	Workers    int
	MaxRetries int
	MaxJobs    int
	OnResult   func(Result)
	Obs        *obs.Collector
	// JournalPath, if non-empty, streams completed jobs to this JSONL
	// file. With Resume, any torn tail left by a mid-append kill is
	// truncated away, the file's remaining rows are loaded, and their jobs
	// are not re-executed; without it the file is truncated to empty.
	JournalPath string
	Resume      bool
	// Throttle, if positive, sleeps this long (cancellably) before every
	// executed job. It is a resume-drill knob: fast campaigns finish before
	// a kill can land mid-flight, so drills that exercise the kill/restart
	// path widen the window with an artificial per-job cost. Resumed jobs
	// never pay it — they do not execute.
	Throttle time.Duration
}

// CampaignReport is a finished (or interrupted) campaign.
type CampaignReport struct {
	// Spec is the campaign that ran.
	Spec Spec
	// Results holds the per-job results in canonical job order; partial
	// when Err was returned.
	Results []Result
	// Stats is the per-(protocol, size) aggregation; nil on interruption.
	Stats []GroupStat
	// Executed and Resumed count jobs run here vs restored from the
	// journal.
	Executed, Resumed int
}

// RunCampaign is the end-to-end campaign entry point: expand the spec into
// jobs, restore completed jobs from the journal when resuming, execute the
// rest on the worker pool, and aggregate. On interruption the report is
// returned alongside the error with whatever completed — all of it already
// durable in the journal.
func RunCampaign(ctx context.Context, spec Spec, opts CampaignOptions) (*CampaignReport, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	fn, ok := Proto(spec.Proto)
	if !ok {
		return nil, fmt.Errorf("sweep: spec %q names unknown protocol %q", spec.Name, spec.Proto)
	}
	if opts.Throttle > 0 {
		inner := fn
		throttle := opts.Throttle
		fn = func(ctx context.Context, job Job) (Result, error) {
			select {
			case <-ctx.Done():
				return Result{}, ctx.Err()
			case <-time.After(throttle):
			}
			return inner(ctx, job)
		}
	}
	runOpts := Options{
		Workers:    opts.Workers,
		MaxRetries: opts.MaxRetries,
		MaxJobs:    opts.MaxJobs,
		OnResult:   opts.OnResult,
		Obs:        opts.Obs,
	}
	col := opts.Obs
	if col == nil {
		col = obs.Global()
	}
	if opts.JournalPath != "" {
		// Open before read: a resume open truncates any torn tail first, so
		// the Done set below can never include a row whose bytes are about
		// to be repaired away.
		j, err := OpenJournal(opts.JournalPath, opts.Resume)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		if opts.Resume {
			done, err := ReadJournal(opts.JournalPath)
			if err != nil {
				return nil, err
			}
			runOpts.Done = done
		}
		if col != nil {
			j.Observe(col)
		}
		runOpts.Journal = j
	}
	rep, err := Run(ctx, jobs, fn, runOpts)
	out := &CampaignReport{
		Spec:     spec,
		Results:  rep.Results,
		Executed: rep.Executed,
		Resumed:  rep.Resumed,
	}
	if err != nil {
		return out, fmt.Errorf("campaign %s: %w", spec.Name, err)
	}
	out.Stats = Aggregate(rep.Results)
	return out, nil
}
