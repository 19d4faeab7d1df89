package main

import (
	"context"
	"strings"
	"testing"

	"anondyn/internal/cli"
)

func TestTableThresholds(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-max", "121"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Thresholds 1, 4, 13, 40, 121 and their neighbors must appear.
	for _, want := range []string{"       1  ", "       4  ", "      13  ", "      40  ", "     121  "} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableVerify(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-max", "41", "-verify"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "pair verified") {
		t.Fatalf("missing verification column:\n%s", out)
	}
	if strings.Contains(out, "FAILED") || strings.Contains(out, "ERROR") {
		t.Fatalf("verification failed:\n%s", out)
	}
}

func TestTableAll(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-max", "10", "-all"}, &sb); err != nil {
		t.Fatal(err)
	}
	// Header plus exactly 10 rows.
	lines := strings.Count(strings.TrimRight(sb.String(), "\n"), "\n") + 1
	if lines != 11 {
		t.Fatalf("expected 11 lines, got %d:\n%s", lines, sb.String())
	}
}

func TestBadArgs(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-max", "0"}, &sb); err == nil {
		t.Fatal("max=0 should error")
	}
	if err := run(context.Background(), []string{"-zzz"}, &sb); err == nil {
		t.Fatal("bad flag should error")
	}
}

// The CSV series has no verification column, so -verify with -csv is a
// usage error rather than a verification that silently never runs.
func TestCSVVerifyIsUsageError(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-max", "5", "-csv", "-verify"}, &sb)
	if got := cli.ExitCode(err); got != cli.ExitUsage {
		t.Fatalf("exit code %d (err %v), want %d (usage)", got, err, cli.ExitUsage)
	}
	if sb.Len() != 0 {
		t.Fatalf("printed output before rejecting the flags:\n%s", sb.String())
	}
}

func TestSelectSizesDedup(t *testing.T) {
	sizes := selectSizes(14, false)
	seen := map[int]bool{}
	for _, n := range sizes {
		if seen[n] {
			t.Fatalf("duplicate size %d in %v", n, sizes)
		}
		seen[n] = true
		if n < 1 || n > 14 {
			t.Fatalf("size %d out of range in %v", n, sizes)
		}
	}
	if !seen[13] || !seen[14] {
		t.Fatalf("thresholds missing from %v", sizes)
	}
}

func TestCSVOutput(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-max", "13", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "n,indistinguishable_rounds,count_bound\n") {
		t.Fatalf("missing CSV header:\n%s", out)
	}
	if !strings.Contains(out, "13,3,4") {
		t.Fatalf("missing threshold row:\n%s", out)
	}
}
