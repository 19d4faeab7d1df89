package counting

import (
	"context"
	"strings"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// TestDegreeOracleCountExactAllEngines: the role-discovering counter must
// return the exact |V| in exactly 4 rounds on restricted 𝒢(PD)₂ instances
// of every shape — even outer counts, odd, degree-irregular — on both
// engines.
func TestDegreeOracleCountExactAllEngines(t *testing.T) {
	ctx := context.Background()
	for _, engine := range []string{"sequential", "sharded"} {
		run, err := EngineByName(ctx, engine)
		if err != nil {
			t.Fatal(err)
		}
		for _, outer := range []int{1, 2, 5, 12} {
			inst, err := RestrictedPD2Instance(outer)
			if err != nil {
				t.Fatal(err)
			}
			count, rounds, err := DegreeOracleCount(inst.Net, inst.Leader, inst.V1, inst.V2, run)
			if err != nil {
				t.Fatalf("%s outer=%d: %v", engine, outer, err)
			}
			if count != inst.TrueN {
				t.Errorf("%s outer=%d: count %d, want %d", engine, outer, count, inst.TrueN)
			}
			if rounds != 4 {
				t.Errorf("%s outer=%d: %d rounds, want 4", engine, outer, rounds)
			}
		}
	}
}

// TestDegreeOracleOnWorstCase: the Lemma-1 transform of the worst-case
// ℳ(DBL)₂ adversary is itself restricted 𝒢(PD)₂, so the degree oracle
// counts it in 4 rounds — on schedules where the anonymous leader-state
// counter needs its full ⌊log₃(2|W|+1)⌋+1 budget. This is the paper's
// Discussion contrast in executable form.
func TestDegreeOracleOnWorstCase(t *testing.T) {
	ctx := context.Background()
	run, err := EngineByName(ctx, "sequential")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 13, 40} {
		inst, err := WorstCaseInstance(w)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunAlgorithm("degreeoracle", inst, run)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if res.Count != inst.TrueN || res.Rounds != 4 {
			t.Errorf("w=%d: got (%d, %d rounds), want (%d, 4 rounds)", w, res.Count, res.Rounds, inst.TrueN)
		}
		// The layout-fed variant stays 2 rounds: discovering roles costs
		// exactly the two announcement rounds.
		resOracle, err := RunAlgorithm("oracle", inst, run)
		if err != nil {
			t.Fatalf("w=%d oracle: %v", w, err)
		}
		if resOracle.Rounds != 2 || resOracle.Count != inst.TrueN {
			t.Errorf("w=%d: oracle got (%d, %d rounds), want (%d, 2 rounds)", w, resOracle.Count, resOracle.Rounds, inst.TrueN)
		}
	}
}

// TestDegreeOracleRejectsViolations covers the driver's validation: layer
// mismatches and unrestricted networks must be rejected before any rounds
// run.
func TestDegreeOracleRejectsViolations(t *testing.T) {
	ctx := context.Background()
	run, _ := EngineByName(ctx, "sequential")
	inst, err := RestrictedPD2Instance(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DegreeOracleCount(inst.Net, inst.Leader, inst.V1, nil, run); err == nil {
		t.Error("short layer cover accepted")
	}
	if _, _, err := DegreeOracleCount(inst.Net, inst.Leader, inst.V1, inst.V1, run); err == nil {
		t.Error("overlapping layers accepted")
	}
	// A connected random graph is not layered at all.
	net, err := dynet.NewTInterval(6, 1, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	v1 := []graph.NodeID{1, 2}
	v2 := []graph.NodeID{3, 4, 5}
	if _, _, err := DegreeOracleCount(net, 0, v1, v2, run); err == nil {
		t.Error("unrestricted network accepted")
	}
}

// TestValidateAgainstNewFamilies pins the registry-level matching: the
// degree oracle refuses the layout-free families, the 1-interval-connected
// algorithms refuse join/leave churn via its declared properties, and the
// compatible combinations actually count.
func TestValidateAgainstNewFamilies(t *testing.T) {
	ctx := context.Background()
	run, _ := EngineByName(ctx, "sequential")
	ti, err := TIntervalInstance(7, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := JoinLeaveInstance(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := RandomizedInstance(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []*Instance{ti, jl, rd} {
		if _, err := RunAlgorithm("degreeoracle", inst, run); err == nil ||
			!strings.Contains(err.Error(), "layer layout") {
			t.Errorf("degreeoracle on %s: %v, want layer-layout rejection", inst.Name, err)
		}
	}
	for _, algo := range []string{"histtree", "idcount", "incremental"} {
		if _, err := RunAlgorithm(algo, jl, run); err == nil ||
			!strings.Contains(err.Error(), "churn") {
			t.Errorf("%s on joinleave: %v, want connectivity rejection", algo, err)
		}
	}
	for _, inst := range []*Instance{ti, rd} {
		res, err := RunAlgorithm("histtree", inst, run)
		if err != nil {
			t.Fatalf("histtree on %s: %v", inst.Name, err)
		}
		if res.Count != inst.TrueN {
			t.Errorf("histtree on %s: count %d, want %d", inst.Name, res.Count, inst.TrueN)
		}
	}
	// The estimator accepts join/leave (fair adversary) and completes; its
	// estimate carries no exactness promise on churn, so only liveness and
	// plausibility are asserted.
	res, err := RunAlgorithm("pushsum", jl, run)
	if err != nil {
		t.Fatalf("pushsum on joinleave: %v", err)
	}
	if res.Count < 1 || res.Count > 10*jl.TrueN {
		t.Errorf("pushsum on joinleave: implausible estimate %d (true %d)", res.Count, jl.TrueN)
	}
}
