package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// metric is one reported number. BENCHMARK.json declares the same names
// with the regression bounds; loadSpec refuses a file that disagrees.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the program sees, measured untraced.
// On a counting workload one sample is one job, so jobs_per_s is
// 1/count_s there; on the campaign count_s is the campaign's wall time.
var endToEnd = []metric{
	{"count_s", "s", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's numbers, named after the package they time.
// A workload that never enters a layer reports 0 for it. A p99 in unit
// ms_bucket is the upper bound of an obs power-of-two bucket, within 2x of
// the true percentile.
var perLayer = []metric{
	{"runtime.engine_s", "s", "lower"},
	{"runtime.self_s", "s", "lower"},
	{"runtime.canon_s", "s", "lower"},
	{"runtime.canon_calls", "count", "lower"},
	{"runtime.rounds", "count", "lower"},
	{"runtime.messages", "count", "lower"},
	{"runtime.round_p50_ms", "ms", "lower"},
	{"runtime.round_p99_ms", "ms", "lower"},
	{"runtime.sharded_speedup", "ratio", "higher"},
	{"dynet.snapshot_s", "s", "lower"},
	{"dynet.snapshots", "count", "lower"},
	{"counting.precheck_s", "s", "lower"},
	{"counting.send_s", "s", "lower"},
	{"counting.receive_s", "s", "lower"},
	{"counting.leader_s", "s", "lower"},
	{"histtree.send_s", "s", "lower"},
	{"histtree.merge_s", "s", "lower"},
	{"histtree.leader_s", "s", "lower"},
	{"chainnet.send_s", "s", "lower"},
	{"chainnet.receive_s", "s", "lower"},
	{"chainnet.leader_s", "s", "lower"},
	{"kernel.solve_s", "s", "lower"},
	{"kernel.rounds", "count", "lower"},
	{"sweep.jobs", "count", "higher"},
	{"sweep.job_s", "s", "lower"},
	{"sweep.job_p99_ms", "ms_bucket", "lower"},
	{"sweep.journal_append_s", "s", "lower"},
	{"sweep.journal_append_p99_ms", "ms_bucket", "lower"},
	{"sweep.worker_idle_s", "s", "lower"},
	{"proc.cpu_s", "s", "lower"},
	{"proc.alloc_mb", "MB", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"trace.count_s", "s", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metric
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json and checks it declares exactly the
// registry's workloads and metrics, with the same units and directions.
func loadSpec(file string) (*spec, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if err := s.check(); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &s, nil
}

func (s *spec) check() error {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads(false) {
		want = append(want, w.Name)
	}
	if !slices.Equal(names, want) {
		return fmt.Errorf("workloads %v, the registry has %v", names, want)
	}
	var e2e []metric
	for _, m := range s.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		e2e = append(e2e, m.metric)
	}
	if !slices.Equal(e2e, endToEnd) {
		return fmt.Errorf("end_to_end %v, the registry has %v", e2e, endToEnd)
	}
	if !slices.Equal(s.PerLayer, perLayer) {
		return fmt.Errorf("per_layer %v, the registry has %v", s.PerLayer, perLayer)
	}
	return nil
}

func (s *spec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return math.NaN()
}

// summary is the spread of one metric over a set of samples. Q1 and Q3
// follow Python's statistics.quantiles(values, n=4), the exclusive method.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(values []float64) summary {
	v := slices.Clone(values)
	slices.Sort(v)
	n := len(v)
	if n == 0 {
		return summary{}
	}
	s := summary{N: n, Q1: v[0], Q3: v[n-1]}
	if n%2 == 1 {
		s.Median = v[n/2]
	} else {
		s.Median = (v[n/2-1] + v[n/2]) / 2
	}
	if n >= 2 {
		q := func(i int) float64 {
			j := min(max(i*(n+1)/4, 1), n-1)
			delta := float64(i*(n+1) - j*4)
			return (v[j-1]*(4-delta) + v[j]*delta) / 4
		}
		s.Q1, s.Q3 = q(1), q(3)
	}
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// uncertainty is McGill's notch, 1.57·IQR/√n, as a share of the median:
// about a 95% interval for the median of n samples. A set whose median is
// less certain than a metric's bound cannot resolve a change of that size.
// The raw IQR of a few samples is not the test: on a busy host it exceeds
// 25% in slow spells while the median holds.
func (s summary) uncertainty() float64 {
	return 1.57 * s.spread() / math.Sqrt(float64(max(s.N, 1)))
}

// median is the middle of values, 0 when empty.
func median(values []float64) float64 { return summarize(values).Median }
