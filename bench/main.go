// Command bench is the repository's benchmark. It runs four workloads
// over the counting stack (see README.md for why each was chosen), checks
// every result against pinned outputs, and prints each metric with its
// median and spread; the last line of its output is one JSON object.
//
// Build and run it with bench/run.sh from the repository root, which stamps
// the binary with the digest of the sources it was built from:
//
//	bash bench/run.sh [-workload names] [-samples n] [-seconds s] [-seed n] [-trace 0|1] [-o dir]
//
// Every sample is a fresh re-exec of this binary (the -child mode) with
// GOMAXPROCS set to the number of CPUs; workloads take turns, one sample
// each per round. With -trace 1 it measures per-layer numbers instead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// childTimeout bounds one sample; the slowest takes about 8 s.
const childTimeout = 150 * time.Second

type options struct {
	samples int
	seconds time.Duration
	seed    int64
	traced  bool
	out     string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated `workloads` to run, or all")
	samples := fs.Int("samples", 5, "untraced samples per workload, at least")
	secs := fs.Float64("seconds", 0, "keep adding rounds of samples while one more fits in this many `seconds`")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	out := fs.String("o", filepath.Join(".bench_build", "out"), "`directory` for the ledger, trace files and journals")
	child := fs.String("child", "", "internal: measure one sample of this `workload` and print it as JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	if fs.NArg() > 0 || *samples < 1 || *secs < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: want -samples >= 1, -seconds >= 0, -trace 0 or 1, and no arguments")
		return 1
	}
	o := options{samples: *samples, seconds: time.Duration(*secs * float64(time.Second)), seed: *seed, traced: *traceFlag == 1, out: *out}
	if *child != "" {
		return runChild(ctx, *child, o, stdout, stderr)
	}
	return runParent(ctx, *names, o, stdout, stderr)
}

// runChild measures one sample in this process and prints it.
func runChild(ctx context.Context, name string, o options, stdout, stderr io.Writer) int {
	w, err := lookup(workloads(false), name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	s, tf, err := runSample(ctx, w, o.seed, o.traced, filepath.Join(o.out, "tmp"))
	if err == nil && tf != nil {
		err = tf.write(filepath.Join(o.out, fmt.Sprintf("trace-%s-p%d.json", w.Name, goruntime.GOMAXPROCS(0))))
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(s)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// set is everything measured for one workload in one invocation.
type set struct {
	w      workload
	plain  []sample // untraced
	traced []sample
	serial []sample // traced at GOMAXPROCS=1, sharded workloads only
}

func runParent(ctx context.Context, names string, o options, stdout, stderr io.Writer) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: run from the repository root:", err)
		return 1
	}
	if code := checkFresh(stderr); code != 0 {
		return code
	}
	var sets []*set
	all := workloads(false)
	if names == "all" {
		for _, w := range all {
			sets = append(sets, &set{w: w})
		}
	} else {
		for _, name := range strings.Split(names, ",") {
			w, err := lookup(all, name)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			sets = append(sets, &set{w: w})
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	nproc := goruntime.NumCPU()
	st := newStamp(o.seed, nproc)
	fmt.Fprintf(stdout, "# commit %s dirty=%s source %.12s %s nproc=%d gomaxprocs=%d seed=%d\n# cpu %s\n",
		st.Commit, st.Dirty, st.Source, st.GoVersion, st.NumCPU, st.GOMAXPROCS, st.Seed, st.CPU)

	// A round takes one sample of every workload, so the workloads take
	// turns and slow drift on the machine spreads over all of them.
	minRounds := o.samples
	if o.traced {
		minRounds = 1 // per-layer numbers carry no bound
	}
	start := time.Now()
	var longest time.Duration
	for round := 0; round < minRounds || (o.seconds > 0 && time.Since(start)+longest <= o.seconds); round++ {
		t0 := time.Now()
		for _, s := range sets {
			if err := s.sample(ctx, exe, o, nproc, stderr); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		longest = max(longest, time.Since(t0))
	}

	attempted, failed := 0, 0
	for _, s := range sets {
		for _, xs := range [][]sample{s.plain, s.traced, s.serial} {
			for _, x := range xs {
				attempted += x.Attempted
				failed += x.Failed
				for _, p := range x.Problems {
					fmt.Fprintln(stderr, "bench: FAILED", p)
				}
			}
		}
	}
	results, spreadOK := report(sets, spec, o.traced, stdout, stderr)
	if err := writeLedger(filepath.Join(o.out, "ledger.json"), st, o, sets, results); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !spreadOK {
		fmt.Fprintln(stderr, "bench: a median of this set is less certain than its bound; no verdict")
		return 2
	}
	metrics := map[string]any{}
	for _, r := range results {
		key := r.metric.Name
		if len(sets) > 1 {
			key = r.workload + "/" + key
		}
		metrics[key] = map[string]any{"value": r.Median, "unit": r.metric.Unit}
	}
	line, err := json.Marshal(map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed > 0 {
		return 1
	}
	return 0
}

// checkFresh refuses a binary built from other sources than the tree it
// runs in: its numbers would belong to other code.
func checkFresh(stderr io.Writer) int {
	if sourceDigest == "" {
		fmt.Fprintln(stderr, "bench: binary carries no source digest; build and run it with bench/run.sh")
		return 1
	}
	got, err := digestSources(".")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if got != sourceDigest {
		fmt.Fprintf(stderr, "bench: stale binary: built from sources %.12s, the tree is %.12s; rebuild with bench/run.sh\n", sourceDigest, got)
		return 2
	}
	return 0
}

// sample takes one round of samples of s: untraced, and in a traced run
// also traced, plus traced at GOMAXPROCS=1 for the sharded engine.
func (s *set) sample(ctx context.Context, exe string, o options, nproc int, stderr io.Writer) error {
	x, err := spawn(ctx, exe, s.w.Name, o, false, nproc, stderr)
	if err != nil {
		return err
	}
	s.plain = append(s.plain, x)
	if !o.traced {
		return nil
	}
	if x, err = spawn(ctx, exe, s.w.Name, o, true, nproc, stderr); err != nil {
		return err
	}
	s.traced = append(s.traced, x)
	if s.w.Sharded && nproc > 1 {
		if x, err = spawn(ctx, exe, s.w.Name, o, true, 1, stderr); err != nil {
			return err
		}
		s.serial = append(s.serial, x)
	}
	return nil
}

// spawn re-executes this binary to measure one sample in a fresh process,
// and times the host-speed reference here, just before and after it, so
// the sample's own process stays untouched.
func spawn(ctx context.Context, exe, name string, o options, traced bool, procs int, stderr io.Writer) (sample, error) {
	before := reference()
	s, err := spawnChild(ctx, exe, name, o, traced, procs, stderr)
	s.RefS = (before + reference()) / 2
	return s, err
}

func spawnChild(ctx context.Context, exe, name string, o options, traced bool, procs int, stderr io.Writer) (sample, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", name, "-seed", strconv.FormatInt(o.seed, 10), "-trace", trace, "-o", o.out)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	var s sample
	if err := cmd.Run(); err != nil {
		return s, fmt.Errorf("%s sample: %w", name, err)
	}
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		return s, fmt.Errorf("%s sample: %w", name, err)
	}
	return s, nil
}

// result is one reported metric of one workload.
type result struct {
	workload string
	metric   metric
	summary
}

// report summarizes every set, prints one line per metric and reports
// whether every gated median is known to within its bound.
func report(sets []*set, spec *spec, traced bool, stdout, stderr io.Writer) ([]result, bool) {
	ok := true
	var results []result
	fmt.Fprintf(stdout, "%-22s %-28s %-6s %12s %12s %12s %7s %3s\n", "workload", "metric", "unit", "median", "q1", "q3", "iqr%", "n")
	for _, s := range sets {
		values := s.endToEnd()
		metrics := endToEnd
		if traced {
			values, metrics = s.perLayer(), perLayer
		}
		for _, m := range metrics {
			r := result{workload: s.w.Name, metric: m, summary: summarize(values[m.Name])}
			results = append(results, r)
			fmt.Fprintf(stdout, "%-22s %-28s %-6s %12.6g %12.6g %12.6g %7.2f %3d\n",
				s.w.Name, m.Name, m.Unit, r.Median, r.Q1, r.Q3, 100*r.spread(), r.N)
			if !traced && gated(m.Name) && r.uncertainty() > spec.bound(m.Name) {
				fmt.Fprintf(stderr, "bench: %s %s median uncertain by %.3f, more than its bound %.3f\n",
					s.w.Name, m.Name, r.uncertainty(), spec.bound(m.Name))
				ok = false
			}
		}
		if traced {
			for _, line := range shares(s.w, values) {
				fmt.Fprintf(stdout, "# %s %s\n", s.w.Name, line)
			}
		}
	}
	return results, ok
}

// gated reports whether a set too noisy in the metric gets no verdict. The
// memory and set-up metrics are left out: a sample's peak RSS jumps when a
// GC cycle overshoots, and a set-up of microseconds varies between builds,
// while the median of either holds from run to run.
func gated(name string) bool { return name == "count_s" || name == "jobs_per_s" }

// endToEnd gathers the untraced samples' metrics, times in
// reference-normalized seconds.
func (s *set) endToEnd() map[string][]float64 {
	v := map[string][]float64{}
	for _, x := range s.plain {
		f := x.scale()
		v["count_s"] = append(v["count_s"], x.CountS*f)
		v["jobs_per_s"] = append(v["jobs_per_s"], x.JobsPerS/f)
		v["setup_s"] = append(v["setup_s"], x.SetupS*f)
		v["peak_rss_mb"] = append(v["peak_rss_mb"], x.PeakRSSMB)
	}
	return v
}

// perLayer gathers the traced samples' layer numbers, a 0 where a sample
// never entered the layer, and derives the numbers that compare runs.
// Times are reference-normalized, so ratios across samples hold; bucket
// bounds are not times measured here and stay as they are.
func (s *set) perLayer() map[string][]float64 {
	v := map[string][]float64{}
	for _, x := range s.traced {
		for _, m := range perLayer {
			val := x.Layers[m.Name]
			if m.Unit == "s" || m.Unit == "ms" {
				val *= x.scale()
			}
			v[m.Name] = append(v[m.Name], val)
		}
	}
	var plainCount, cpu, alloc, gc []float64
	for _, x := range s.plain {
		plainCount = append(plainCount, x.CountS*x.scale())
		cpu, alloc, gc = append(cpu, x.CPUS*x.scale()), append(alloc, x.AllocMB), append(gc, x.GCCycles)
	}
	v["proc.cpu_s"], v["proc.alloc_mb"], v["proc.gc_cycles"] = cpu, alloc, gc
	v["trace.overhead_frac"] = []float64{median(v["trace.count_s"])/median(plainCount) - 1}
	v["runtime.sharded_speedup"] = []float64{0}
	if len(s.serial) > 0 {
		var serial []float64
		for _, x := range s.serial {
			serial = append(serial, x.Layers["runtime.engine_s"]*x.scale())
		}
		v["runtime.sharded_speedup"] = []float64{median(serial) / median(v["runtime.engine_s"])}
	}
	return v
}

// shares returns the ratios that show a traced run explains its workload:
// the timed layers cover the count, and each workload loads its layer.
func shares(w workload, values map[string][]float64) []string {
	layer := func(name string) float64 { return median(values[name]) }
	count := layer("trace.count_s")
	share := func(name string, part, whole float64) string {
		return fmt.Sprintf("share %-40s %.3f", name, part/whole)
	}
	if w.Spec != nil {
		work := float64(w.Workers) * count
		return []string{share("sweep.journal_append_s/worker_s", layer("sweep.journal_append_s"), work)}
	}
	return []string{
		share("(precheck_s+engine_s)/count_s", layer("counting.precheck_s")+layer("runtime.engine_s"), count),
		share("histtree.*/count_s", layer("histtree.send_s")+layer("histtree.merge_s")+layer("histtree.leader_s"), count),
		share("(dynet.snapshot_s+precheck_s)/count_s", layer("dynet.snapshot_s")+layer("counting.precheck_s"), count),
	}
}

func writeLedger(file string, st stamp, o options, sets []*set, results []result) error {
	type entry struct {
		Plain   []sample           `json:"untraced"`
		Traced  []sample           `json:"traced,omitempty"`
		Serial  []sample           `json:"traced_gomaxprocs1,omitempty"`
		Metrics map[string]summary `json:"metrics"`
	}
	byName := map[string]*entry{}
	for _, s := range sets {
		byName[s.w.Name] = &entry{Plain: s.plain, Traced: s.traced, Serial: s.serial, Metrics: map[string]summary{}}
	}
	for _, r := range results {
		byName[r.workload].Metrics[r.metric.Name] = r.summary
	}
	data, err := json.MarshalIndent(map[string]any{"stamp": st, "traced": o.traced, "workloads": byName}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(data, '\n'), 0o644)
}
