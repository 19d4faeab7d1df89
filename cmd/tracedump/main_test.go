package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anondyn/internal/cli"
	"anondyn/internal/trace"
)

func TestDumpToStdout(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-n", "4", "-chain", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.FromJSON([]byte(sb.String()))
	if err != nil {
		t.Fatalf("output is not a valid trace: %v", err)
	}
	if tr.N != 1+1+2+4 {
		t.Fatalf("trace N = %d, want 8", tr.N)
	}
	if len(tr.Rounds) != 2 { // indistinguishability horizon for n=4
		t.Fatalf("rounds = %d, want 2", len(tr.Rounds))
	}
}

// TestDumpGolden pins three transcripts by the SHA-256 of their stdout, so
// a change to the protocol, the engines' delivery order or the recorder
// that alters a single byte shows.
func TestDumpGolden(t *testing.T) {
	for _, tc := range []struct {
		args []string
		sha  string
	}{
		{[]string{"-n", "13", "-chain", "2"}, "b2101637213dad26d5a31f946ace8562c75608d8227fdf48669dbf7f52fe16ea"},
		{[]string{"-n", "4", "-chain", "0"}, "9e71e5d5cbe431ff439e1fb03ea6edcbbad9674e8f09f2085e345764709116f0"},
		{[]string{"-n", "40", "-chain", "1", "-twin"}, "da037dd64bba8f4cb0b1f1caf2e1b3b56f8374fdda6ca15299c3f80e68f73590"},
	} {
		var sb strings.Builder
		if err := run(context.Background(), tc.args, &sb); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(sb.String()))
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("tracedump %v: stdout SHA-256 %s, want %s", tc.args, got, tc.sha)
		}
	}
}

func TestDumpToFileAndTwinIndistinguishable(t *testing.T) {
	dir := t.TempDir()
	pathM := filepath.Join(dir, "m.json")
	pathT := filepath.Join(dir, "t.json")
	var sb strings.Builder
	if err := run(context.Background(), []string{"-n", "13", "-o", pathM}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-n", "13", "-twin", "-o", pathT}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wrote") {
		t.Fatalf("missing confirmation: %s", sb.String())
	}
	load := func(path string) *trace.Trace {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.FromJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	m := load(pathM)
	tw := load(pathT)
	if tw.N != m.N+1 {
		t.Fatalf("twin has %d nodes, original %d", tw.N, m.N)
	}
	// The leader's transcripts are identical through the horizon even
	// though the networks have different sizes.
	eq, err := trace.TranscriptsEqual(m, tw, 0, len(m.Rounds))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("leader transcripts differ: the twin is distinguishable")
	}
}

func TestDumpCustomRounds(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-n", "4", "-rounds", "5"}, &sb); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.FromJSON([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rounds) != 5 {
		t.Fatalf("rounds = %d, want 5", len(tr.Rounds))
	}
}

func TestDumpErrors(t *testing.T) {
	var sb strings.Builder
	for _, args := range [][]string{
		{"-n", "0"},
		{"-chain", "-1"},
		{"-bogus"},
	} {
		if err := run(context.Background(), args, &sb); err == nil {
			t.Fatalf("args %v should error", args)
		}
	}
}

// TestDumpHonorsTimeout stops a recording that outlasts -timeout: uncut,
// this one takes eight rounds and writes about 108 MB. The run returns the
// deadline error, a runtime failure (exit 2), and writes no file.
func TestDumpHonorsTimeout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var sb strings.Builder
	err := run(context.Background(), []string{"-n", "3280", "-chain", "0", "-timeout", "50ms", "-o", path}, &sb)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline error", err)
	}
	if got := cli.ExitCode(err); got != cli.ExitRuntime {
		t.Fatalf("exit code %d, want %d", got, cli.ExitRuntime)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a timed-out recording left a file: %v", err)
	}
}
