package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anondyn/internal/cli"
	"anondyn/internal/counting"
)

// capture runs the CLI's run() with stdout redirected to a temp file and
// returns the output.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(context.Background(), args, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestBoundCommand(t *testing.T) {
	out, err := capture(t, []string{"-bound", "-n", "40"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T(n) = 4", "T(n)+1 = 5", "= 40 <= n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPairCommand(t *testing.T) {
	out, err := capture(t, []string{"-pair", "-n", "4"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"|W| = 4", "|W| = 5", "through 2 completed rounds", "diverge at round 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLeaderStateCommand(t *testing.T) {
	// The registry normalizes every count to total network size |V|: for
	// the worst-case family with |W| = 13 that is 1 + 2 + 13 = 16.
	out, err := capture(t, []string{"-algo", "leaderstate", "-n", "13"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 16 nodes") || !strings.Contains(out, "true size 16") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestOracleCommand(t *testing.T) {
	out, err := capture(t, []string{"-algo", "oracle", "-n", "20"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 23 nodes in 2 round(s)") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestStarCommand(t *testing.T) {
	out, err := capture(t, []string{"-algo", "star", "-n", "9"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 10 nodes in 1 round") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestPushSumCommand(t *testing.T) {
	out, err := capture(t, []string{"-algo", "pushsum", "-n", "9", "-seed", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "estimate 10") || !strings.Contains(out, "true size 10") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestHistTreeCommand(t *testing.T) {
	out, err := capture(t, []string{"-algo", "histtree", "-n", "40"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 40 nodes") || !strings.Contains(out, "cycle-40") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestIncrementalCommand(t *testing.T) {
	// The default family is worstcase (see defaultAdversary): -n 5 is the
	// |W|=5 Lemma-5 schedule, so the true size is |V| = 5 + 3.
	out, err := capture(t, []string{"-algo", "incremental", "-n", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 8 nodes") || !strings.Contains(out, "worstcase-5") {
		t.Fatalf("output:\n%s", out)
	}
	// The slow-mixing caveat documented on defaultAdversary: an explicit
	// small cycle still works.
	out, err = capture(t, []string{"-algo", "incremental", "-adversary", "cycle", "-n", "6"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 6 nodes") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestAdversaryFlag(t *testing.T) {
	out, err := capture(t, []string{"-algo", "histtree", "-n", "11", "-adversary", "flooddelay"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 11 nodes") || !strings.Contains(out, "flood-delay-11") {
		t.Fatalf("output:\n%s", out)
	}
}

// Incompatible algorithm/adversary combinations must be rejected as usage
// errors naming the missing model assumption and the compatible default.
func TestAdversaryMismatchRejected(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "oracle", "-adversary", "cycle", "-n", "6"}, "restricted"},
		{[]string{"-algo", "leaderstate", "-adversary", "cycle", "-n", "6"}, "multigraph schedule"},
		{[]string{"-algo", "pushsum", "-adversary", "cycle", "-n", "6"}, "fair"},
		{[]string{"-algo", "star", "-adversary", "cycle", "-n", "6"}, "adjacent"},
		{[]string{"-algo", "histtree", "-adversary", "warp", "-n", "6"}, "unknown adversary"},
	}
	for _, tc := range cases {
		_, err := capture(t, tc.args)
		if err == nil {
			t.Fatalf("args %v accepted, want rejection", tc.args)
		}
		if got := cli.ExitCode(err); got != cli.ExitUsage {
			t.Fatalf("args %v: exit code %d, want %d (usage); err: %v", tc.args, got, cli.ExitUsage, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}

func TestChainCommand(t *testing.T) {
	out, err := capture(t, []string{"-algo", "chain", "-n", "13", "-chain", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 13 nodes in 7 rounds = delay 3 + bound 4") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestUpperBoundCommand(t *testing.T) {
	out, err := capture(t, []string{"-algo", "upperbound", "-n", "20"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "true size 23") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestEngineFlag(t *testing.T) {
	for _, eng := range []string{"sequential", "sharded"} {
		out, err := capture(t, []string{"-algo", "star", "-n", "5", "-engine", eng})
		if err != nil {
			t.Fatalf("-engine %s: %v", eng, err)
		}
		if !strings.Contains(out, "counted 6 nodes") {
			t.Fatalf("-engine %s output:\n%s", eng, out)
		}
	}
	for _, eng := range []string{"turbo", "concurrent"} {
		if _, err := capture(t, []string{"-algo", "star", "-n", "5", "-engine", eng}); err == nil {
			t.Fatalf("unknown engine %q accepted", eng)
		} else if got := cli.ExitCode(err); got != cli.ExitUsage {
			t.Fatalf("unknown engine %q exits %d, want %d", eng, got, cli.ExitUsage)
		}
	}
}

func TestErrorsAndUsage(t *testing.T) {
	cases := [][]string{
		{},                           // nothing requested
		{"-algo", "nonsense"},        // unknown algorithm
		{"-algo", "star", "-n", "0"}, // bad n
		{"-badflag"},                 // flag parse error
		// sizes the chosen family cannot build
		{"-algo", "histtree", "-n", "2"},
		{"-algo", "histtree", "-adversary", "flooddelay", "-n", "1"},
		// a negative chain length
		{"-algo", "chain", "-n", "5", "-chain", "-1"},
	}
	for _, args := range cases {
		_, err := capture(t, args)
		if err == nil {
			t.Fatalf("args %v should error", args)
		}
		if got := cli.ExitCode(err); got != cli.ExitUsage {
			t.Fatalf("args %v: exit code %d, want %d (usage)", args, got, cli.ExitUsage)
		}
	}
}

// TestAlgoUsageGolden pins the -help algorithm listing, including the
// registry-derived per-algorithm adversary compatibility lines. Regenerate
// with UPDATE_GOLDEN=1 go test ./cmd/anondyn/ after intentional changes.
func TestAlgoUsageGolden(t *testing.T) {
	got := algoUsage() + "\n"
	golden := filepath.Join("testdata", "algo_usage.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		t.Errorf("algoUsage drifted from the golden file (regenerate with UPDATE_GOLDEN=1 if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The structural claims behind the golden file, asserted directly so a
	// regenerated file cannot silently drop them: every registry algorithm
	// appears with a non-empty adversary list, and the new families appear
	// where the registry accepts them.
	compat := compatibleFamilies()
	for _, name := range counting.Names() {
		if len(compat[name]) == 0 {
			t.Errorf("algorithm %s lists no compatible adversaries", name)
		}
	}
	for algo, fam := range map[string]string{
		"histtree":     "tinterval",
		"pushsum":      "joinleave",
		"idcount":      "randomized",
		"degreeoracle": "restricted",
	} {
		if !strings.Contains(strings.Join(compat[algo], " "), fam) {
			t.Errorf("%s compatibility %v misses family %s", algo, compat[algo], fam)
		}
	}
}

// TestAdversaryRunsGolden pins the full output of one run on each
// -adversary family at -n 12 -seed 3, so a change to any family's
// construction or draw that moves a count, a round or an instance name
// shows here. Regenerate with UPDATE_GOLDEN=1 go test ./cmd/anondyn/ after
// intentional changes.
func TestAdversaryRunsGolden(t *testing.T) {
	runs := [][2]string{
		{"histtree", "cycle"},
		{"histtree", "churn"},
		{"histtree", "randomized"},
		{"histtree", "tinterval"},
		{"histtree", "flooddelay"},
		{"histtree", "restricted"},
		{"pushsum", "joinleave"},
		{"idcount", "worstcase"},
		{"star", "star"},
	}
	var b strings.Builder
	for _, r := range runs {
		args := []string{"-algo", r[0], "-adversary", r[1], "-n", "12", "-seed", "3"}
		out, err := capture(t, args)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		b.WriteString("$ anondyn " + strings.Join(args, " ") + "\n" + out)
	}
	got := b.String()
	golden := filepath.Join("testdata", "adversary_runs.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		t.Errorf("adversary runs drifted from the golden file (regenerate with UPDATE_GOLDEN=1 if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestDegreeOracleCommand(t *testing.T) {
	out, err := capture(t, []string{"-algo", "degreeoracle", "-n", "20"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 23 nodes in 4 round(s)") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestNewAdversaryFlags(t *testing.T) {
	out, err := capture(t, []string{"-algo", "histtree", "-n", "12", "-adversary", "tinterval", "-seed", "5"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 12 nodes") || !strings.Contains(out, "tinterval3-12-seed5") {
		t.Fatalf("output:\n%s", out)
	}
	out, err = capture(t, []string{"-algo", "histtree", "-n", "9", "-adversary", "randomized", "-seed", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 9 nodes") || !strings.Contains(out, "randomized-9-seed2") {
		t.Fatalf("output:\n%s", out)
	}
	out, err = capture(t, []string{"-algo", "pushsum", "-n", "10", "-adversary", "joinleave", "-seed", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "joinleave-10-seed4") || !strings.Contains(out, "estimate") {
		t.Fatalf("output:\n%s", out)
	}
	// Churn-isolating families are rejected for connectivity-requiring
	// algorithms with the declared property named.
	_, err = capture(t, []string{"-algo", "histtree", "-n", "10", "-adversary", "joinleave"})
	if err == nil || !strings.Contains(err.Error(), "churn") {
		t.Fatalf("histtree on joinleave: %v, want churn rejection", err)
	}
	if got := cli.ExitCode(err); got != cli.ExitUsage {
		t.Fatalf("histtree on joinleave: exit code %d, want %d", got, cli.ExitUsage)
	}
}

func TestHelpExitsZero(t *testing.T) {
	_, err := capture(t, []string{"-h"})
	if got := cli.ExitCode(err); got != cli.ExitSuccess {
		t.Fatalf("-h: exit code %d (err %v), want 0", got, err)
	}
}

func TestCanceledRunIsRuntimeFailure(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	err := run(ctx, []string{"-algo", "star", "-n", "5"}, &sb)
	if err == nil {
		t.Fatal("canceled context should abort the run")
	}
	if got := cli.ExitCode(err); got != cli.ExitRuntime {
		t.Fatalf("canceled run: exit code %d (err %v), want %d", got, err, cli.ExitRuntime)
	}
}

func TestAnonymousCommand(t *testing.T) {
	out, err := capture(t, []string{"-algo", "anonymous", "-n", "13"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counted 13 nodes in 4 rounds") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestUnconsciousCommand(t *testing.T) {
	out, err := capture(t, []string{"-algo", "unconscious", "-n", "13"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"conscious termination     : round 4", "fooled by the size-14 twin"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
