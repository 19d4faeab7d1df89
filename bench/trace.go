package main

import (
	"encoding/json"
	"math"
	"os"
	"path"
	"reflect"
	"slices"
	"sync/atomic"
	"time"

	"anondyn/internal/counting"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/obs"
	"anondyn/internal/runtime"
)

// tracer times one traced counting sample from outside the program: it
// wraps the Runner handed to counting.RunAlgorithm, and inside it every
// process, the network, the canonicalizers and OnRound. A wrapper
// implements an optional interface (runtime.DegreeAware, runtime.Outputter,
// dynet.CSRDynamic) only when the wrapped value does, so the traced run
// takes the engine paths the untraced run takes.
//
// Shard workers call processes and canonicalizers concurrently. Each
// process wrapper is touched by one worker per phase and read by the
// coordinator in OnRound, after the engine's phase barrier; the shared
// canon and network totals are atomics.
type tracer struct {
	workers int // engine workers, to express self time in worker-seconds

	entry    time.Time // counting.RunAlgorithm called
	engineAt time.Time // first engine call
	engine   time.Duration

	inEngine        atomic.Bool
	canonNS, canonN atomic.Int64
	snapNS, snapN   atomic.Int64
	snapEngineNS    atomic.Int64 // the part of snapNS spent inside the engine
	procs           []*tracedProc
	lastRound       time.Time
	prev            [nTracks]int64
	rounds          []roundSpan
	layer           string // package of the protocol processes
}

// Per-round child totals, one trace track each.
const (
	trackSend = iota
	trackReceive
	trackLeader
	trackCanon
	trackSnapshot
	nTracks
)

// roundSpan is one completed round: its start relative to the
// RunAlgorithm call, its duration, and each track's total within it.
type roundSpan struct {
	start, dur time.Duration
	child      [nTracks]time.Duration
}

// instance returns a copy of inst whose network is traced, so the
// algorithms' own up-front passes over the network are timed too.
func (t *tracer) instance(inst *counting.Instance) *counting.Instance {
	c := *inst
	c.Net = t.net(inst.Net)
	return &c
}

func (t *tracer) runner(inner counting.Runner) counting.Runner {
	return func(cfg *runtime.Config) (int, error) {
		if t.engineAt.IsZero() {
			t.engineAt = time.Now()
		}
		c := t.config(cfg)
		start := time.Now()
		t.lastRound = start
		t.inEngine.Store(true)
		rounds, err := inner(c)
		t.inEngine.Store(false)
		t.engine += time.Since(start)
		return rounds, err
	}
}

func (t *tracer) config(cfg *runtime.Config) *runtime.Config {
	c := *cfg
	c.Net = t.net(cfg.Net)
	c.Procs = make([]runtime.Process, len(cfg.Procs))
	for i, p := range cfg.Procs {
		c.Procs[i] = t.proc(p)
	}
	if cfg.CanonKey != nil {
		key := cfg.CanonKey
		c.CanonKey = func(m runtime.Message) uint64 {
			start := time.Now()
			k := key(m)
			t.canon(start)
			return k
		}
	} else {
		canon := cfg.Canon
		if canon == nil {
			canon = runtime.DefaultCanon
		}
		c.Canon = func(m runtime.Message) string {
			start := time.Now()
			k := canon(m)
			t.canon(start)
			return k
		}
	}
	onRound := cfg.OnRound
	c.OnRound = func(r int) {
		t.endRound()
		if onRound != nil {
			onRound(r)
		}
	}
	return &c
}

func (t *tracer) canon(start time.Time) {
	t.canonNS.Add(int64(time.Since(start)))
	t.canonN.Add(1)
}

func (t *tracer) snapshot(start time.Time) {
	d := int64(time.Since(start))
	t.snapNS.Add(d)
	t.snapN.Add(1)
	if t.inEngine.Load() {
		t.snapEngineNS.Add(d)
	}
}

// totals returns the running total of every track.
func (t *tracer) totals() [nTracks]int64 {
	var tot [nTracks]int64
	for _, p := range t.procs {
		tot[trackSend] += p.sendNS
		if p.leader {
			tot[trackLeader] += p.recvNS
		} else {
			tot[trackReceive] += p.recvNS
		}
	}
	tot[trackCanon] = t.canonNS.Load()
	tot[trackSnapshot] = t.snapEngineNS.Load()
	return tot
}

// endRound runs on the engine's coordinator after each round.
func (t *tracer) endRound() {
	now := time.Now()
	tot := t.totals()
	span := roundSpan{start: t.lastRound.Sub(t.entry), dur: now.Sub(t.lastRound)}
	for i := range tot {
		span.child[i] = time.Duration(tot[i] - t.prev[i])
	}
	t.prev, t.lastRound = tot, now
	t.rounds = append(t.rounds, span)
}

// layers returns the traced sample's per-layer numbers. countS is the
// traced RunAlgorithm wall time.
func (t *tracer) layers(countS float64) map[string]float64 {
	m := map[string]float64{
		"trace.count_s":       countS,
		"counting.precheck_s": t.engineAt.Sub(t.entry).Seconds(),
		"runtime.engine_s":    t.engine.Seconds(),
		"runtime.rounds":      float64(len(t.rounds)),
		"runtime.canon_s":     time.Duration(t.canonNS.Load()).Seconds(),
		"runtime.canon_calls": float64(t.canonN.Load()),
		"dynet.snapshot_s":    time.Duration(t.snapNS.Load()).Seconds(),
		"dynet.snapshots":     float64(t.snapN.Load()),
	}
	var protocol, messages int64
	for _, p := range t.procs {
		m[p.layer+".send_s"] += time.Duration(p.sendNS).Seconds()
		m[p.layer+receiveMetric(p)] += time.Duration(p.recvNS).Seconds()
		protocol += p.sendNS + p.recvNS
		messages += p.msgs
	}
	m["runtime.messages"] = float64(messages)
	// Engine time not spent in protocol code, canonicalization or topology:
	// sort, place and deliver plus barrier wait. On the sharded engine it
	// is in worker-seconds, since protocol time is summed over workers.
	inside := time.Duration(protocol + t.canonNS.Load() + t.snapEngineNS.Load())
	m["runtime.self_s"] = (time.Duration(t.workers)*t.engine - inside).Seconds()
	durs := make([]float64, len(t.rounds))
	for i, r := range t.rounds {
		durs[i] = float64(r.dur) / 1e6
	}
	slices.Sort(durs)
	m["runtime.round_p50_ms"] = rank(durs, 0.50)
	m["runtime.round_p99_ms"] = rank(durs, 0.99)
	return m
}

// receiveMetric names the layer metric a process's Receive time goes to:
// the leader's is kept apart.
func receiveMetric(p *tracedProc) string {
	if p.leader {
		return ".leader_s"
	}
	return "." + receiveName(p.layer) + "_s"
}

// receiveName names a non-leader's Receive: in the history tree it is the
// view merge.
func receiveName(layer string) string {
	if layer == "histtree" {
		return "merge"
	}
	return "receive"
}

// rank returns the nearest-rank p-quantile of sorted values, 0 when empty.
func rank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// kernelLayers reads the kernel solver's own instrumentation.
func kernelLayers(s *obs.Snapshot) map[string]float64 {
	return map[string]float64{
		"kernel.solve_s": float64(s.Histograms[obs.KernelRoundNS].Sum) / 1e9,
		"kernel.rounds":  float64(s.Counters[obs.KernelRounds]),
	}
}

// campaignLayers reads the sweep engine's instrumentation for a campaign
// of wall seconds on the given workers.
func campaignLayers(s *obs.Snapshot, workers int, wall float64) map[string]float64 {
	job, journal := s.Histograms[obs.SweepJobNS], s.Histograms[obs.SweepJournalAppendNS]
	jobS, journalS := float64(job.Sum)/1e9, float64(journal.Sum)/1e9
	return map[string]float64{
		"trace.count_s":               wall,
		"sweep.jobs":                  float64(s.Counters[obs.SweepJobs]),
		"sweep.job_s":                 jobS,
		"sweep.job_p99_ms":            float64(job.P99) / 1e6,
		"sweep.journal_append_s":      journalS,
		"sweep.journal_append_p99_ms": float64(journal.P99) / 1e6,
		"sweep.worker_idle_s":         float64(workers)*wall - jobS - journalS,
	}
}

// tracedProc times one process's protocol calls.
type tracedProc struct {
	inner  runtime.Process
	layer  string
	leader bool

	sendNS, recvNS, msgs int64
}

func (p *tracedProc) Send(r int) runtime.Message {
	start := time.Now()
	m := p.inner.Send(r)
	p.sendNS += int64(time.Since(start))
	return m
}

func (p *tracedProc) Receive(r int, msgs []runtime.Message) {
	start := time.Now()
	p.inner.Receive(r, msgs)
	p.recvNS += int64(time.Since(start))
	p.msgs += int64(len(msgs))
}

// The degree oracle runs before Send and is charged to it.
func (p *tracedProc) setDegree(da runtime.DegreeAware, r, d int) {
	start := time.Now()
	da.SetDegree(r, d)
	p.sendNS += int64(time.Since(start))
}

type degreeProc struct {
	*tracedProc
	da runtime.DegreeAware
}

func (p degreeProc) SetDegree(r, d int) { p.setDegree(p.da, r, d) }

type outputProc struct {
	*tracedProc
	runtime.Outputter
}

type degreeOutputProc struct {
	degreeProc
	runtime.Outputter
}

// proc wraps one process. The leader is the process that reports the
// count, the one implementing runtime.Outputter.
func (t *tracer) proc(p runtime.Process) runtime.Process {
	out, isOut := p.(runtime.Outputter)
	tp := &tracedProc{inner: p, layer: layerOf(p), leader: isOut}
	t.procs = append(t.procs, tp)
	if t.layer == "" {
		t.layer = tp.layer
	}
	da, isDA := p.(runtime.DegreeAware)
	switch {
	case isDA && isOut:
		return degreeOutputProc{degreeProc{tp, da}, out}
	case isDA:
		return degreeProc{tp, da}
	case isOut:
		return outputProc{tp, out}
	}
	return tp
}

// layerOf names the package that implements p, e.g. "histtree".
func layerOf(p runtime.Process) string {
	t := reflect.TypeOf(p)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return path.Base(t.PkgPath())
}

type tracedNet struct {
	inner dynet.Dynamic
	t     *tracer
}

func (n *tracedNet) N() int { return n.inner.N() }

func (n *tracedNet) Snapshot(r int) *graph.Graph {
	start := time.Now()
	g := n.inner.Snapshot(r)
	n.t.snapshot(start)
	return g
}

type tracedCSRNet struct {
	*tracedNet
	csr dynet.CSRDynamic
}

func (n tracedCSRNet) SnapshotCSR(r int) *graph.CSR {
	start := time.Now()
	c := n.csr.SnapshotCSR(r)
	n.t.snapshot(start)
	return c
}

// net wraps d once: a network the instance already traced reaches the
// engine through the same wrapper.
func (t *tracer) net(d dynet.Dynamic) dynet.Dynamic {
	switch d.(type) {
	case *tracedNet, tracedCSRNet:
		return d
	}
	tn := &tracedNet{inner: d, t: t}
	if c, ok := d.(dynet.CSRDynamic); ok {
		return tracedCSRNet{tn, c}
	}
	return tn
}

// traceFile is what a traced sample writes as trace-event JSON: phase
// spans, then one span per round with each track's total in that round.
type traceFile struct {
	workload string
	workers  int
	phases   []phaseSpan
	rounds   []roundSpan
	tracks   [nTracks]string
}

type phaseSpan struct {
	name       string
	start, dur time.Duration
}

// maxRoundSpans caps the rounds written; longer runs keep every k-th.
const maxRoundSpans = 2048

func (t *tracer) file(workload string, count time.Duration) *traceFile {
	f := &traceFile{workload: workload, workers: t.workers, rounds: t.rounds}
	pre := t.engineAt.Sub(t.entry)
	f.phases = []phaseSpan{
		{"RunAlgorithm", 0, count},
		{"precheck", 0, pre},
		{"engine", pre, t.engine},
	}
	l := t.layer + "."
	f.tracks = [nTracks]string{l + "send", l + receiveName(t.layer), l + "leader", "runtime.canon", "dynet.snapshot"}
	return f
}

// campaignFile lays the campaign's sweep totals out as one span: each
// track is the per-worker average of job, journal and idle time.
func campaignFile(workload string, layers map[string]float64, workers int) *traceFile {
	wall := seconds(layers["trace.count_s"])
	f := &traceFile{workload: workload, workers: workers}
	f.phases = []phaseSpan{{"RunCampaign", 0, wall}}
	span := roundSpan{dur: wall}
	span.child[0] = seconds(layers["sweep.job_s"])
	span.child[1] = seconds(layers["sweep.journal_append_s"])
	span.child[2] = seconds(layers["sweep.worker_idle_s"])
	f.rounds = []roundSpan{span}
	f.tracks = [nTracks]string{"sweep.job", "sweep.journal_append", "sweep.worker_idle"}
	return f
}

func seconds(s float64) time.Duration { return time.Duration(s * 1e9) }

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// write renders f in the trace-event format Perfetto and chrome://tracing
// read. A track's totals are summed over engine workers; its drawn span is
// the per-worker average, cut to the round, and args carry the total.
func (f *traceFile) write(file string) error {
	thread := func(tid int, name string) traceEvent {
		return traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}}
	}
	ev := []traceEvent{thread(1, "phases"), thread(2, "rounds")}
	for i, name := range f.tracks {
		if name != "" {
			ev = append(ev, thread(3+i, name))
		}
	}
	for _, p := range f.phases {
		ev = append(ev, traceEvent{Name: p.name, Ph: "X", Ts: micros(p.start), Dur: micros(p.dur), Pid: 1, Tid: 1})
	}
	stride := max(1, (len(f.rounds)+maxRoundSpans-1)/maxRoundSpans)
	for r := 0; r < len(f.rounds); r += stride {
		s := f.rounds[r]
		ev = append(ev, traceEvent{Name: "round", Ph: "X", Ts: micros(s.start), Dur: micros(s.dur), Pid: 1, Tid: 2,
			Args: map[string]any{"round": r}})
		for i, name := range f.tracks {
			if name == "" || s.child[i] == 0 {
				continue
			}
			drawn := min(s.child[i]/time.Duration(max(f.workers, 1)), s.dur)
			ev = append(ev, traceEvent{Name: name, Ph: "X", Ts: micros(s.start), Dur: micros(drawn), Pid: 1, Tid: 3 + i,
				Args: map[string]any{"round": r, "total_ms": float64(s.child[i]) / 1e6}})
		}
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     ev,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": f.workload, "rounds": len(f.rounds), "round_stride": stride},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(file, data, 0o644)
}
