package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"anondyn/internal/counting"
	"anondyn/internal/obs"
	"anondyn/internal/runtime"
	"anondyn/internal/sweep"
)

// workload is one set of inputs the benchmark runs. A counting workload
// runs Algo through counting.RunAlgorithm on the instance Build returns and
// must reproduce the pinned WantCount in exactly WantRounds rounds; the
// campaign workload runs the sweep campaign Spec returns instead.
type workload struct {
	Name string
	Why  string

	Algo       string
	Sharded    bool
	Build      func() (*counting.Instance, error)
	WantCount  int
	WantRounds int

	Spec    func(seed int64) sweep.Spec
	Workers int
}

// workloads is the registry. toy shrinks every input to a size the unit
// tests run in milliseconds; the pinned results shrink with it.
func workloads(toy bool) []workload {
	pick := func(full, small int) int {
		if toy {
			return small
		}
		return full
	}
	cycleN := pick(512, 16)
	lsW, incW := pick(88573, 13), pick(16, 4)
	sizes, trials := []int{13, 40, 121, 364, 1093, 3280}, 1000
	if toy {
		sizes, trials = []int{13, 40}, 4
	}
	return []workload{
		{
			Name:       "histtree-cycle",
			Why:        "history-tree counter on a static 512-cycle: histtree merge dominates, the topology layers idle, largest memory footprint",
			Algo:       "histtree",
			Build:      func() (*counting.Instance, error) { return counting.CycleInstance(cycleN) },
			WantCount:  cycleN,
			WantRounds: pick(1280, 40),
		},
		{
			Name:       "leaderstate-worstcase",
			Why:        "the paper's counter on the worst-case schedule, |V|=88576 in 13 rounds: engine delivery, string canon and topology, sharded engine",
			Algo:       "leaderstate",
			Sharded:    true,
			Build:      func() (*counting.Instance, error) { return counting.WorstCaseInstance(lsW) },
			WantCount:  lsW + 3,
			WantRounds: pick(13, 5),
		},
		{
			Name:       "incremental-worstcase",
			Why:        "Incremental Counting on the worst-case schedule, |V|=19 in 41646 rounds: per-round fixed cost and the connectivity precheck dominate",
			Algo:       "incremental",
			Build:      func() (*counting.Instance, error) { return counting.WorstCaseInstance(incW) },
			WantCount:  incW + 3,
			WantRounds: pick(41646, 896),
		},
		{
			Name: "mc-campaign",
			Why:  "Monte-Carlo sweep campaign of 6000 leader-state counts on 2 workers with an fsynced journal: the only workload that writes",
			Spec: func(seed int64) sweep.Spec {
				return sweep.Spec{Name: "mc-campaign", Proto: sweep.ProtoMDBLCount, Sizes: sizes, Trials: trials, Horizon: 14, Seed: seed}
			},
			Workers: min(2, goruntime.NumCPU()),
		},
	}
}

func lookup(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sample is one child process's measurement, handed to the parent as JSON.
type sample struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Problems describes each failed operation.
	Problems []string `json:"problems,omitempty"`
	Count    int      `json:"count"`
	Rounds   int      `json:"rounds"`

	// RefS is the mean of the host-speed reference timed just before and
	// after the sample's process (see reference); the parent fills it. The
	// times here are as measured.
	RefS float64 `json:"ref_s"`

	SetupS    float64 `json:"setup_s"`
	CountS    float64 `json:"count_s"`
	JobsPerS  float64 `json:"jobs_per_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// Process counters over the timed phase.
	CPUS     float64 `json:"cpu_s"`
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles float64 `json:"gc_cycles"`

	// Layers holds the per-layer numbers of a traced sample.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// Setup timing. One build of the cycle takes ~0.1 ms, too short to time
// steadily alone, so builds are timed in batches of at least setupBatch and
// the median batch's time per build is reported; a large instance, whose
// single build already takes setupTotal, is built once.
const (
	setupBatch   = 20 * time.Millisecond
	setupBatches = 5
	setupTotal   = 200 * time.Millisecond
)

// timeSetup returns the last build and the seconds per build.
func timeSetup[T any](build func() (T, error)) (T, float64, error) {
	var (
		v     T
		err   error
		times []float64
	)
	start := time.Now()
	for len(times) < setupBatches && (len(times) == 0 || time.Since(start) < setupTotal) {
		batch := time.Now()
		n := 0
		for n == 0 || time.Since(batch) < setupBatch {
			if v, err = build(); err != nil {
				return v, 0, err
			}
			n++
		}
		times = append(times, time.Since(batch).Seconds()/float64(n))
	}
	return v, median(times), nil
}

// procCounters reads the process counters the sample reports as deltas.
type procCounters struct {
	cpu             time.Duration
	alloc, gcCycles uint64
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return procCounters{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		gcCycles: uint64(ms.NumGC),
	}
}

// runSample measures one sample of w: the set-up, the timed operation and
// the check of its output. traced wraps every layer boundary (see tracer)
// and fills Layers; tmp is a directory inside the checkout for the
// campaign's journal. The returned error is a failure of the benchmark
// itself; a failed operation is counted in the sample.
func runSample(ctx context.Context, w workload, seed int64, traced bool, tmp string) (sample, *traceFile, error) {
	var col *obs.Collector
	if traced {
		col = obs.New()
		obs.Set(col)
		defer obs.Set(nil)
	}
	var (
		s   sample
		tf  *traceFile
		err error
	)
	if w.Spec != nil {
		s, tf, err = runCampaign(ctx, w, seed, col, tmp)
	} else {
		s, tf, err = runCount(w, traced)
	}
	if err != nil {
		return s, nil, err
	}
	if col != nil {
		for name, v := range kernelLayers(col.Snapshot()) {
			s.Layers[name] = v
		}
	}
	if s.PeakRSSMB, err = peakRSSMB(); err != nil {
		return s, nil, err
	}
	return s, tf, nil
}

// peakRSSMB reads this process's resident-set high-water mark. It is not
// getrusage's ru_maxrss: a process started by vfork and exec inherits its
// parent's high-water mark there.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// maxProblems bounds the failures a sample describes; all are counted.
const maxProblems = 10

func (s *sample) fail(format string, args ...any) {
	s.Failed++
	if len(s.Problems) < maxProblems {
		s.Problems = append(s.Problems, fmt.Sprintf(format, args...))
	}
}

func (s *sample) timed(start time.Time, before procCounters) {
	s.CountS = time.Since(start).Seconds()
	after := readProc()
	s.CPUS = (after.cpu - before.cpu).Seconds()
	s.AllocMB = float64(after.alloc-before.alloc) / (1 << 20)
	s.GCCycles = float64(after.gcCycles - before.gcCycles)
}

func runCount(w workload, traced bool) (sample, *traceFile, error) {
	var s sample
	inst, setup, err := timeSetup(w.Build)
	if err != nil {
		return s, nil, fmt.Errorf("%s: build instance: %w", w.Name, err)
	}
	s.SetupS = setup
	run := counting.Runner(runtime.RunSequential)
	workers := 1
	if w.Sharded {
		run = runtime.RunSharded
		workers = min(goruntime.GOMAXPROCS(0), inst.TrueN)
	}
	var tr *tracer
	if traced {
		tr = &tracer{workers: workers}
		inst = tr.instance(inst)
		run = tr.runner(run)
	}
	// Collect the setup garbage now, so it is not charged to the count.
	goruntime.GC()
	before := readProc()
	start := time.Now()
	if tr != nil {
		tr.entry = start
	}
	res, err := counting.RunAlgorithm(w.Algo, inst, run)
	s.timed(start, before)
	s.Attempted = 1
	s.JobsPerS = 1 / s.CountS
	s.Count, s.Rounds = res.Count, res.Rounds
	switch {
	case err != nil:
		s.fail("%s: %v", w.Name, err)
	case res.Count != w.WantCount || res.Rounds != w.WantRounds:
		s.fail("%s: counted %d in %d rounds, want %d in %d", w.Name, res.Count, res.Rounds, w.WantCount, w.WantRounds)
	}
	if tr == nil {
		return s, nil, nil
	}
	s.Layers = tr.layers(s.CountS)
	return s, tr.file(w.Name, seconds(s.CountS)), nil
}

func runCampaign(ctx context.Context, w workload, seed int64, col *obs.Collector, tmp string) (sample, *traceFile, error) {
	var s sample
	spec := w.Spec(seed)
	jobs, setup, err := timeSetup(spec.Jobs)
	if err != nil {
		return s, nil, fmt.Errorf("%s: expand spec: %w", w.Name, err)
	}
	s.SetupS = setup
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return s, nil, err
	}
	dir, err := os.MkdirTemp(tmp, "journal-")
	if err != nil {
		return s, nil, err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "journal.jsonl")

	goruntime.GC()
	before := readProc()
	start := time.Now()
	rep, err := sweep.RunCampaign(ctx, spec, sweep.CampaignOptions{Workers: w.Workers, JournalPath: journal, Obs: col})
	s.timed(start, before)
	s.Attempted = len(jobs)
	// A campaign error or an unreadable journal leaves jobs without a good
	// row, and those are the failures counted.
	rows, rerr := sweep.ReadJournal(journal)
	for _, e := range []error{err, rerr} {
		if e != nil {
			s.Problems = append(s.Problems, fmt.Sprintf("%s: %v", w.Name, e))
		}
	}
	for i, job := range jobs {
		row, ok := rows[job.Key]
		switch {
		case !ok:
			s.fail("%s: no journal row", job.Key)
		case row.Failed:
			s.fail("%s: failed row: %s", job.Key, row.Err)
		case row.Count != job.N || rep == nil || rep.Results[i] != row:
			s.fail("%s: journal row %+v disagrees with the report", job.Key, row)
		}
	}
	if rep != nil {
		s.JobsPerS = float64(rep.Executed) / s.CountS
		s.Count = rep.Executed
	}
	if col == nil {
		return s, nil, nil
	}
	s.Layers = campaignLayers(col.Snapshot(), w.Workers, s.CountS)
	return s, campaignFile(w.Name, s.Layers, w.Workers), nil
}
