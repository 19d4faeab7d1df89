package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"anondyn/internal/counting"
	"anondyn/internal/dynet"
	"anondyn/internal/runtime"
)

// TestToyWorkloads runs every workload at toy size untraced and traced:
// both must reproduce the pinned result, and every declared metric must
// come out finite.
func TestToyWorkloads(t *testing.T) {
	tmp := t.TempDir()
	ref := reference()
	if !(ref > 0 && ref < 10) {
		t.Fatalf("reference took %v s", ref)
	}
	for _, w := range workloads(true) {
		plain, _, err := runSample(context.Background(), w, 1, false, tmp)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		traced, tf, err := runSample(context.Background(), w, 1, true, tmp)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, s := range []sample{plain, traced} {
			if s.Failed != 0 || s.Attempted == 0 {
				t.Errorf("%s: %d of %d operations failed: %v", w.Name, s.Failed, s.Attempted, s.Problems)
			}
		}
		plain.RefS, traced.RefS = ref, ref
		if plain.Count != traced.Count || plain.Rounds != traced.Rounds {
			t.Errorf("%s: untraced %d in %d rounds, traced %d in %d", w.Name, plain.Count, plain.Rounds, traced.Count, traced.Rounds)
		}
		s := &set{w: w, plain: []sample{plain}, traced: []sample{traced}}
		if w.Sharded {
			s.serial = s.traced
		}
		for _, group := range []struct {
			metrics []metric
			values  map[string][]float64
		}{{endToEnd, s.endToEnd()}, {perLayer, s.perLayer()}} {
			for _, m := range group.metrics {
				v := group.values[m.Name]
				if len(v) == 0 || math.IsNaN(median(v)) || math.IsInf(median(v), 0) {
					t.Errorf("%s: metric %s = %v, want a finite value", w.Name, m.Name, v)
				}
			}
		}
		file := filepath.Join(tmp, w.Name+".json")
		if err := tf.write(file); err != nil {
			t.Fatal(err)
		}
		var events struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if data, err := os.ReadFile(file); err != nil || json.Unmarshal(data, &events) != nil || len(events.TraceEvents) == 0 {
			t.Errorf("%s: trace file unreadable or empty (%v)", w.Name, err)
		}
	}
}

// TestTracedLayersExplainCount checks that the traced layers add up on a
// counting workload: precheck plus engine is the whole count, and the
// protocol's own layer is the one charged.
func TestTracedLayersExplainCount(t *testing.T) {
	w, err := lookup(workloads(true), "histtree-cycle")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := runSample(context.Background(), w, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := s.Layers
	if got := l["counting.precheck_s"] + l["runtime.engine_s"]; got > l["trace.count_s"] || got < 0.9*l["trace.count_s"] {
		t.Errorf("precheck %v + engine %v does not make up count %v", l["counting.precheck_s"], l["runtime.engine_s"], l["trace.count_s"])
	}
	if l["histtree.merge_s"] <= 0 || l["histtree.leader_s"] <= 0 || l["chainnet.send_s"] != 0 {
		t.Errorf("layers charged wrongly: %v", l)
	}
	if l["runtime.rounds"] != float64(w.WantRounds) || l["runtime.canon_calls"] != 16*40 {
		t.Errorf("rounds %v, canon calls %v; want %d and %d", l["runtime.rounds"], l["runtime.canon_calls"], w.WantRounds, 16*40)
	}
}

// TestWrappersForwardOptionalInterfaces runs the two programs whose engine
// path depends on an optional interface, traced and untraced: the degree
// oracle needs runtime.DegreeAware, and the sharded engine reads topology
// through dynet.CSRDynamic when the network offers it.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	oracle, err := counting.RestrictedPD2Instance(9)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := counting.WorstCaseInstance(13)
	if err != nil {
		t.Fatal(err)
	}
	csrNet, _, err := worst.M.ToPD2CSR()
	if err != nil {
		t.Fatal(err)
	}
	csrInst := *worst
	csrInst.Net = csrNet
	cases := []struct {
		algo string
		inst *counting.Instance
		run  counting.Runner
	}{
		{"degreeoracle", oracle, runtime.RunSequential},
		{"histtree", &csrInst, runtime.RunSharded},
	}
	for _, c := range cases {
		want, err := counting.RunAlgorithm(c.algo, c.inst, c.run)
		if err != nil {
			t.Fatalf("%s: %v", c.algo, err)
		}
		tr := &tracer{workers: 2}
		got, err := counting.RunAlgorithm(c.algo, tr.instance(c.inst), tr.runner(c.run))
		if err != nil || got != want {
			t.Errorf("%s traced: %+v, %v; untraced %+v", c.algo, got, err, want)
		}
		if want.Count != c.inst.TrueN {
			t.Errorf("%s counted %d, want %d", c.algo, want.Count, c.inst.TrueN)
		}
	}

	tr := &tracer{workers: 1}
	if _, ok := tr.net(csrNet).(dynet.CSRDynamic); !ok {
		t.Error("traced CSR network hides SnapshotCSR")
	}
	if _, ok := tr.net(oracle.Net).(dynet.CSRDynamic); ok {
		t.Error("traced map network claims SnapshotCSR")
	}
	if _, ok := tr.proc(beacon{}).(runtime.DegreeAware); ok {
		t.Error("traced process claims SetDegree its process lacks")
	}
}

type beacon struct{}

func (beacon) Send(int) runtime.Message       { return nil }
func (beacon) Receive(int, []runtime.Message) {}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the registry in
// step, and within the limits the benchmark's consumers enforce.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 || len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(s.EndToEnd), len(s.PerLayer))
	}
	seen := map[string]bool{}
	check := func(n, unit, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or repeated", n)
		}
		seen[n] = true
		if unit == "" || (better != "lower" && better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", n, unit, better)
		}
	}
	for _, w := range s.Workloads {
		check(w.Name, "-", "lower")
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line", w.Name)
		}
	}
	for _, m := range s.EndToEnd {
		check(m.Name, m.Unit, m.Better)
	}
	for _, m := range s.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if b := s.bound("setup_s"); b != 0.25 {
		t.Errorf("setup_s bound %v, want the largest allowed, 0.25", b)
	}
}

func TestSummaryMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.Q1 != 1.5 || s.Median != 3 || s.Q3 != 4.5 || s.N != 5 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if s := summarize([]float64{4, 3, 2, 1}); s.Q1 != 1.25 || s.Median != 2.5 || s.Q3 != 3.75 {
		t.Errorf("got %+v", s)
	}
}
