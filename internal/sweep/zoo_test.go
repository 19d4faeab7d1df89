package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestBuiltinSetNames(t *testing.T) {
	for _, name := range []string{"zoo", "zoo-smoke"} {
		specs, ok := BuiltinSet(name)
		if !ok {
			t.Fatalf("BuiltinSet(%q) missing", name)
		}
		if len(specs) != 9 {
			t.Fatalf("BuiltinSet(%q) has %d specs, want 9 (six worst-case protos plus three adversary-diversity protos)", name, len(specs))
		}
		seen := map[string]bool{}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", name, s.Name, err)
			}
			if _, ok := Proto(s.Proto); !ok {
				t.Fatalf("%s/%s: proto %q not registered", name, s.Name, s.Proto)
			}
			if seen[s.Proto] {
				t.Fatalf("%s repeats proto %q (journal keys would collide)", name, s.Proto)
			}
			seen[s.Proto] = true
		}
	}
	if _, ok := BuiltinSet("figures"); ok {
		t.Fatal("single-spec builtins must not resolve as sets")
	}
}

// Every worst-case zoo proto must produce the unit-consistent measurement
// on the worst-case family: exact algorithms count |V| = |W| + 3 exactly
// (a wrong count is an execution fault that would abort the campaign),
// the upper bound is >= |V|.
func TestZooProtosOnWorstCase(t *testing.T) {
	ctx := context.Background()
	const w = 4 // |W|; total |V| = 7
	worstCase := []string{ProtoZooHistTree, ProtoZooIDCount, ProtoZooIncremental,
		ProtoZooLeaderState, ProtoZooUpperBound, ProtoZooDegreeOracle}
	for _, proto := range worstCase {
		fn, ok := Proto(proto)
		if !ok {
			t.Fatalf("proto %q not registered", proto)
		}
		job := Job{Key: proto + "/test", Proto: proto, N: w, Trial: 0, Horizon: 1, Seed: 1}
		res, err := fn(ctx, job)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if res.Failed {
			t.Fatalf("%s: failed: %s", proto, res.Err)
		}
		if ZooAlgorithms[proto] == "upperbound" {
			if res.Count < w+3 {
				t.Fatalf("%s: bound %d below |V| = %d", proto, res.Count, w+3)
			}
		} else if res.Count != w+3 {
			t.Fatalf("%s: count = %d, want |V| = %d", proto, res.Count, w+3)
		}
		if res.Rounds < 1 {
			t.Fatalf("%s: rounds = %d", proto, res.Rounds)
		}
	}
	if got, want := len(worstCase)+3, len(ZooAlgorithms); got != want {
		t.Fatalf("worst-case protos + 3 family protos = %d, registry has %d", got, want)
	}
}

// The adversary-diversity protos measure the family instances directly:
// Job.N is the total node count. The history-tree protos are exact
// (zooRun itself aborts on a wrong count, so reaching a result proves
// exactness); the push-sum proto records an estimate, which only needs to
// be a positive measurement with at least one round of work behind it.
func TestZooFamilyProtos(t *testing.T) {
	ctx := context.Background()
	const n = 7
	for _, tc := range []struct {
		proto string
		exact bool
	}{
		{ProtoZooTInterval, true},
		{ProtoZooRandomized, true},
		{ProtoZooJoinLeave, false},
	} {
		fn, ok := Proto(tc.proto)
		if !ok {
			t.Fatalf("proto %q not registered", tc.proto)
		}
		job := Job{Key: tc.proto + "/test", Proto: tc.proto, N: n, Trial: 0, Horizon: 1, Seed: 42}
		res, err := fn(ctx, job)
		if err != nil {
			t.Fatalf("%s: %v", tc.proto, err)
		}
		if res.Failed {
			t.Fatalf("%s: failed: %s", tc.proto, res.Err)
		}
		if tc.exact && res.Count != n {
			t.Fatalf("%s: count = %d, want %d", tc.proto, res.Count, n)
		}
		if !tc.exact && res.Count < 1 {
			t.Fatalf("%s: estimate = %d, want a positive measurement", tc.proto, res.Count)
		}
		if res.Rounds < 1 {
			t.Fatalf("%s: rounds = %d", tc.proto, res.Rounds)
		}
		// The family schedules are pure functions of the job seed, so the
		// frozen rows are reproducible.
		again, err := fn(ctx, job)
		if err != nil {
			t.Fatalf("%s rerun: %v", tc.proto, err)
		}
		if again.Rounds != res.Rounds || again.Count != res.Count {
			t.Fatalf("%s nondeterministic: (%d,%d) vs (%d,%d)",
				tc.proto, res.Count, res.Rounds, again.Count, again.Rounds)
		}
	}
}

// The zoo's frozen comparison rests on the protos being deterministic:
// the same job must measure the same rounds on every run.
func TestZooProtosDeterministic(t *testing.T) {
	ctx := context.Background()
	fn, _ := Proto(ProtoZooHistTree)
	job := Job{Key: "det", Proto: ProtoZooHistTree, N: 7, Trial: 0, Horizon: 1, Seed: 5}
	a, err := fn(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	job.Seed = 99 // the worst-case family ignores the seed
	b, err := fn(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Count != b.Count {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", a.Count, a.Rounds, b.Count, b.Rounds)
	}
}

func TestZooCampaignEndToEnd(t *testing.T) {
	specs, _ := BuiltinSet("zoo-smoke")
	var all []Result
	for _, spec := range specs {
		rep, err := RunCampaign(context.Background(), spec, CampaignOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		all = append(all, rep.Results...)
	}
	stats := Aggregate(all)
	if len(stats) != 18 { // 9 protos × 2 sizes
		t.Fatalf("combined table has %d rows, want 18", len(stats))
	}
	table := FormatTable(stats)
	for proto := range ZooAlgorithms {
		if !strings.Contains(table, proto) {
			t.Fatalf("combined table missing %s:\n%s", proto, table)
		}
	}
}

// TestZooJobHonorsCancellation runs the zoo's longest job, which takes
// seconds, under a 50ms deadline: it must stop at a round boundary and
// fail with the deadline, not run to completion or record a failed
// measurement.
func TestZooJobHonorsCancellation(t *testing.T) {
	fn, _ := Proto(ProtoZooIncremental)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := fn(ctx, Job{Key: "cancel", Proto: ProtoZooIncremental, N: 40, Horizon: 1, Seed: 99})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %+v, %v; want the deadline as the job's error", res, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("job stopped %v after the start of its 50ms deadline", elapsed)
	}
}
