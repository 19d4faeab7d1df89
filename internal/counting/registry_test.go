package counting

import (
	"context"
	"strings"
	"testing"

	"anondyn/internal/runtime"
)

func TestRegistryNamesAndLookup(t *testing.T) {
	want := []string{"degreeoracle", "histtree", "idcount", "incremental", "leaderstate", "oracle", "pushsum", "star", "upperbound"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		a, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if a.Doc == "" || a.Semantics == "" || a.Run == nil {
			t.Fatalf("Lookup(%q): incomplete entry %+v", name, a)
		}
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("Lookup(nope) = %v, want unknown-algorithm error", err)
	}
}

// Every exact algorithm must report the total network size |V| on an
// instance satisfying its requirements — the zoo's unit-consistency
// contract: whatever the protocol's native output (|W| for leaderstate,
// V₂ mass for oracle), Result.Count is |V|.
func TestRegistryExactAlgorithmsAgree(t *testing.T) {
	run := Runner(runtime.RunSequential)

	inst, err := WorstCaseInstance(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"histtree", "idcount", "incremental", "leaderstate"} {
		res, err := RunAlgorithm(name, inst, run)
		if err != nil {
			t.Fatalf("%s on %s: %v", name, inst.Name, err)
		}
		if res.Count != inst.TrueN {
			t.Fatalf("%s on %s: count = %d, want %d", name, inst.Name, res.Count, inst.TrueN)
		}
		if res.Rounds < 1 {
			t.Fatalf("%s on %s: rounds = %d", name, inst.Name, res.Rounds)
		}
	}

	rp, err := RestrictedPD2Instance(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAlgorithm("oracle", rp, run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != rp.TrueN {
		t.Fatalf("oracle: count = %d, want %d", res.Count, rp.TrueN)
	}

	st, err := StarInstance(11)
	if err != nil {
		t.Fatal(err)
	}
	res, err = RunAlgorithm("star", st, run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != st.TrueN || res.Rounds != 1 {
		t.Fatalf("star: (%d, %d), want (%d, 1)", res.Count, res.Rounds, st.TrueN)
	}
}

func TestRegistryUpperBoundSemantics(t *testing.T) {
	run := Runner(runtime.RunSequential)
	inst, err := RestrictedPD2Instance(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAlgorithm("upperbound", inst, run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count < inst.TrueN {
		t.Fatalf("upperbound: %d below the true size %d", res.Count, inst.TrueN)
	}
}

func TestRegistryPushSumEstimate(t *testing.T) {
	run := Runner(runtime.RunSequential)
	inst, err := ChurnInstance(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAlgorithm("pushsum", inst, run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count < inst.TrueN-1 || res.Count > inst.TrueN+1 {
		t.Fatalf("pushsum: rounded estimate %d far from %d", res.Count, inst.TrueN)
	}
}

// Invalid algorithm/instance combinations must be rejected before the run,
// with errors naming the missing model assumption — the contract behind
// cmd/anondyn's clear rejection messages.
func TestRegistryValidateRejections(t *testing.T) {
	run := Runner(runtime.RunSequential)

	cycle, err := CycleInstance(6)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo string
		inst *Instance
		want string
	}{
		{"oracle", cycle, "restricted 𝒢(PD)₂ layer layout"},
		{"leaderstate", cycle, "multigraph schedule"},
		{"star", cycle, "adjacent to all"},
		{"pushsum", cycle, "fair (randomized) adversary"},
	}
	for _, tc := range cases {
		_, err := RunAlgorithm(tc.algo, tc.inst, run)
		if err == nil {
			t.Fatalf("%s on %s: accepted, want rejection", tc.algo, tc.inst.Name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s on %s: error %q does not name %q", tc.algo, tc.inst.Name, err, tc.want)
		}
		if !strings.Contains(err.Error(), tc.algo) {
			t.Fatalf("%s: error %q does not name the algorithm", tc.algo, err)
		}
	}

	nodeg := *cycle
	nodeg.MaxDegree = 0
	if _, err := RunAlgorithm("upperbound", &nodeg, run); err == nil ||
		!strings.Contains(err.Error(), "degree bound") {
		t.Fatalf("upperbound without MaxDegree: %v", err)
	}
	if err := (Requirements{}).Validate(nil); err == nil {
		t.Fatal("nil instance accepted")
	}
}

func TestEngineByName(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"", "sequential", "sharded"} {
		if _, err := EngineByName(ctx, name); err != nil {
			t.Fatalf("EngineByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"warp", "concurrent"} {
		if _, err := EngineByName(ctx, name); err == nil {
			t.Fatalf("EngineByName(%q) accepted", name)
		}
	}
}

// Each instance family must satisfy at least one registry entry, and the
// worst-case family must satisfy all five comparable exact/bound
// algorithms — the precondition for the zoo campaign's comparative table.
func TestWorstCaseInstanceCoversZoo(t *testing.T) {
	inst, err := WorstCaseInstance(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"histtree", "idcount", "incremental", "leaderstate", "upperbound"} {
		a, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Requires.Validate(inst); err != nil {
			t.Fatalf("%s rejects the worst-case instance: %v", name, err)
		}
	}
}
