// Package daemon grows the sweep engine into a long-running campaign
// service: campaigns become HTTP requests, not CLI invocations. A Server
// accepts spec submissions (inline specs or named built-in sets such as
// "zoo-smoke"), queues them durably under a data directory, executes each
// on the existing work-stealing worker pool with its journal streamed to
// <datadir>/campaigns/<id>/journal.jsonl, and serves list/inspect, live
// JSONL result streams, aggregates, cancellation, and per-campaign metrics.
//
// Durability is the journal's: completed jobs are synced per batch, and
// each is reported (and counted in live progress) only after the fsync of
// the batch that holds its row; the trailing newline is the commit marker,
// and a resume truncates any torn tail before appending (see
// sweep.OpenJournal). The campaign queue layers on top — a campaign's
// meta.json is fsynced before the submission is acknowledged and on every
// state transition — so a daemon killed at any instant restarts with every
// acknowledged campaign intact and every non-terminal one re-queued,
// recomputing only the jobs whose rows never committed. Results are pure
// functions of (spec, job), so the resumed campaign's journal is
// byte-identical to an uninterrupted one's up to append order, and exactly
// identical when Workers is 1.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"anondyn/internal/obs"
	"anondyn/internal/sweep"
)

// Config tunes a Server.
type Config struct {
	// Dir is the daemon's data directory; campaigns live under
	// Dir/campaigns/<id>/. It is created if missing.
	Dir string
	// MaxCampaigns bounds concurrently *running* campaigns; further
	// submissions queue. <= 0 means 2.
	MaxCampaigns int
	// Workers is the default per-campaign worker-pool size when a
	// submission does not set its own; <= 0 means GOMAXPROCS.
	Workers int
	// Retries is the default per-job retry budget for submissions that do
	// not set their own.
	Retries int
	// Obs, if non-nil, receives the daemon's own counters (submissions,
	// completions, HTTP requests). Nil gives the daemon a private
	// collector — a service is always observable, unlike a CLI run. Each
	// campaign additionally gets its own collector for engine metrics
	// (queue depth, jobs/sec, journal append latency), served on /metrics.
	Obs *obs.Collector
}

// Server is the campaign service. Create with New, expose Handler on an
// http.Server, and Close to stop: in-flight campaigns observe the
// cancellation, keep their durable "running" state, and resume at the next
// startup.
type Server struct {
	dir     string
	workers int
	retries int
	col     *obs.Collector
	m       daemonMetrics
	mux     *http.ServeMux

	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	nextID    int
	campaigns map[string]*campaign
}

// daemonMetrics bundles the service-level handles (the engine-level ones
// live in each campaign's collector).
type daemonMetrics struct {
	submitted *obs.Counter
	resumed   *obs.Counter
	done      *obs.Counter
	failed    *obs.Counter
	canceled  *obs.Counter
	active    *obs.Gauge
	requests  *obs.Counter
	streams   *obs.Gauge
}

// campaign is one submitted campaign's in-memory face over its durable
// meta.json + journal.jsonl pair.
type campaign struct {
	dir     string
	journal string
	col     *obs.Collector

	// completed tracks journaled rows live: seeded from the journal when
	// the runner starts, incremented per executed job.
	completed atomic.Int64
	// done is closed when the campaign reaches a terminal state — the
	// stream endpoint's end-of-campaign signal. It stays open through a
	// daemon shutdown: an interrupted campaign is not over.
	done chan struct{}

	mu         sync.Mutex
	meta       Meta
	cancelRun  context.CancelFunc // non-nil while running
	userCancel bool               // distinguishes cancel requests from shutdown
}

// New builds a Server over cfg.Dir, re-queues every campaign a previous
// daemon left unfinished, and starts their runners immediately — callers
// that only want the HTTP face still get the resume semantics.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("daemon: Config.Dir is required")
	}
	root := filepath.Join(cfg.Dir, "campaigns")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: create data directory: %w", err)
	}
	maxC := cfg.MaxCampaigns
	if maxC <= 0 {
		maxC = 2
	}
	col := cfg.Obs
	if col == nil {
		col = obs.New()
	}
	s := &Server{
		dir:       root,
		workers:   cfg.Workers,
		retries:   cfg.Retries,
		col:       col,
		sem:       make(chan struct{}, maxC),
		campaigns: make(map[string]*campaign),
		m: daemonMetrics{
			submitted: col.Counter(obs.DaemonCampaignsSubmitted),
			resumed:   col.Counter(obs.DaemonCampaignsResumed),
			done:      col.Counter(obs.DaemonCampaignsDone),
			failed:    col.Counter(obs.DaemonCampaignsFailed),
			canceled:  col.Counter(obs.DaemonCampaignsCanceled),
			active:    col.Gauge(obs.DaemonCampaignsActive),
			requests:  col.Counter(obs.DaemonHTTPRequests),
			streams:   col.Gauge(obs.DaemonStreamClients),
		},
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.routes()

	metas, maxID, err := scanCampaigns(root)
	if err != nil {
		return nil, err
	}
	s.nextID = maxID + 1
	for _, m := range metas {
		c := s.register(m)
		if m.State.Terminal() {
			close(c.done)
			continue
		}
		// Unfinished campaign from a killed daemon: back to the queue. The
		// durable state stays as-is until the runner persists "running".
		c.meta.State = StateQueued
		s.m.resumed.Inc()
		s.spawn(c)
	}
	return s, nil
}

// register wires a campaign into the in-memory table (s.mu must not be
// held). Each campaign gets its own collector so /metrics can attribute
// queue depth, jobs/sec, and journal append latency per campaign.
func (s *Server) register(m Meta) *campaign {
	c := &campaign{
		dir:     filepath.Join(s.dir, m.ID),
		journal: filepath.Join(s.dir, m.ID, "journal.jsonl"),
		col:     obs.New(),
		done:    make(chan struct{}),
		meta:    m,
	}
	s.mu.Lock()
	s.campaigns[m.ID] = c
	s.mu.Unlock()
	return c
}

// spawn starts c's runner goroutine under the server's wait group.
func (s *Server) spawn(c *campaign) {
	s.wg.Add(1)
	go s.run(c)
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Inc()
		s.mux.ServeHTTP(w, r)
	})
}

// Close stops accepting submissions, cancels running campaigns, and waits
// for their runners. Interrupted campaigns keep their non-terminal durable
// state, so a later New on the same directory resumes them — Close is the
// graceful spelling of a kill, not a different outcome.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return nil
}

// submit durably enqueues a validated campaign and starts its runner.
func (s *Server) submit(m Meta) (*campaign, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errServerClosed
	}
	m.ID = fmt.Sprintf("c%06d", s.nextID)
	s.nextID++
	s.mu.Unlock()

	m.State = StateQueued
	dir := filepath.Join(s.dir, m.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: create campaign directory: %w", err)
	}
	// The acknowledgement barrier: once meta.json is durable the campaign
	// survives any kill, so only now may the API answer 201.
	if err := writeMeta(dir, m); err != nil {
		return nil, err
	}
	c := s.register(m)
	s.m.submitted.Inc()
	s.spawn(c)
	return c, nil
}

var errServerClosed = errors.New("daemon: server is shutting down")

// run is a campaign's runner: wait for a slot, execute every member spec
// into the shared journal (always in resume mode — the journal is the one
// source of what is already done), and persist the terminal state.
func (s *Server) run(c *campaign) {
	defer s.wg.Done()
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-s.ctx.Done():
		return // still queued on disk; the next daemon re-queues it
	}
	if c.canceledWhileQueued() {
		return
	}
	runCtx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	if err := c.transition(StateRunning, cancel); err != nil {
		s.fail(c, err)
		return
	}
	s.m.active.Add(1)
	defer s.m.active.Add(-1)

	// Pre-audit: the journal must be readable before any spec runs; its
	// row count seeds the live progress counter across restarts. The
	// reader tolerates a torn tail (the resume open truncates it).
	prior, err := sweep.ReadJournal(c.journal)
	if err != nil {
		s.fail(c, err)
		return
	}
	c.completed.Store(int64(len(prior)))

	meta := c.snapshot()
	for _, spec := range meta.Specs {
		_, err = sweep.RunCampaign(runCtx, spec, sweep.CampaignOptions{
			Workers:     meta.Workers,
			MaxRetries:  meta.Retries,
			JournalPath: c.journal,
			Resume:      true,
			Obs:         c.col,
			Throttle:    time.Duration(meta.ThrottleMS) * time.Millisecond,
			OnResult:    func(sweep.Result) { c.completed.Add(1) },
		})
		if err != nil {
			break
		}
	}
	switch {
	case err == nil:
		c.finish(StateDone, nil)
		s.m.done.Inc()
	case c.isUserCancel():
		c.finish(StateCanceled, err)
		s.m.canceled.Inc()
	case s.ctx.Err() != nil:
		// Daemon shutdown: the campaign is interrupted, not over. Its
		// durable state stays "running", which the next startup re-queues.
	default:
		s.fail(c, err)
	}
}

func (s *Server) fail(c *campaign, err error) {
	c.finish(StateFailed, err)
	s.m.failed.Inc()
	fmt.Fprintf(os.Stderr, "daemon: campaign %s failed: %v\n", c.snapshot().ID, err)
}

// transition moves the campaign to running and persists it.
func (c *campaign) transition(st State, cancel context.CancelFunc) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.meta.State = st
	c.cancelRun = cancel
	return writeMeta(c.dir, c.meta)
}

// finish persists a terminal state and signals streamers. A persist failure
// on an otherwise-finished campaign is reported but does not undo the
// result — the journal, the durable truth, is already complete.
func (c *campaign) finish(st State, cause error) {
	c.mu.Lock()
	c.meta.State = st
	if cause != nil {
		c.meta.Error = cause.Error()
	}
	c.meta.DoneJobs = int(c.completed.Load())
	c.cancelRun = nil
	if err := writeMeta(c.dir, c.meta); err != nil {
		fmt.Fprintf(os.Stderr, "daemon: persisting campaign %s state %s: %v\n", c.meta.ID, st, err)
	}
	c.mu.Unlock()
	close(c.done)
}

// requestCancel implements the cancel endpoint: a queued campaign cancels
// immediately; a running one has its context canceled and settles to
// canceled when the engine unwinds. Terminal campaigns are left alone.
func (c *campaign) requestCancel(counter *obs.Counter) (Meta, error) {
	c.mu.Lock()
	switch {
	case c.meta.State.Terminal():
		m := c.meta
		c.mu.Unlock()
		return m, fmt.Errorf("campaign %s is already %s", m.ID, m.State)
	case c.meta.State == StateQueued:
		c.userCancel = true
		c.meta.State = StateCanceled
		c.meta.Error = "canceled before start"
		err := writeMeta(c.dir, c.meta)
		m := c.meta
		c.mu.Unlock()
		counter.Inc()
		close(c.done)
		return m, err
	default: // running
		c.userCancel = true
		cancel := c.cancelRun
		m := c.meta
		c.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return m, nil
	}
}

// canceledWhileQueued reports (and absorbs) a cancel that landed before the
// runner got a slot; the cancel path already persisted and signaled.
func (c *campaign) canceledWhileQueued() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta.State == StateCanceled
}

func (c *campaign) isUserCancel() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.userCancel
}

// snapshot returns a copy of the durable record.
func (c *campaign) snapshot() Meta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta
}

// Status is a campaign's API view: the durable record plus live progress.
type Status struct {
	Meta
	// LiveDoneJobs is the journaled-row count right now (meta.DoneJobs is
	// only as fresh as the last persisted transition).
	LiveDoneJobs int `json:"live_done_jobs"`
}

func (c *campaign) status() Status {
	st := Status{Meta: c.snapshot()}
	st.LiveDoneJobs = int(c.completed.Load())
	if st.LiveDoneJobs < st.DoneJobs {
		st.LiveDoneJobs = st.DoneJobs
	}
	return st
}
