// Command lowerbound prints the indistinguishability table of Theorem 1:
// for each network size n it reports the exact number of rounds the
// worst-case adversary sustains two indistinguishable networks of sizes n
// and n+1, and (with -verify) constructs and checks the adversarial pair.
//
// Usage:
//
//	lowerbound [-max 1000] [-verify | -csv] [-all] [-timeout 30s]
//
// The table honors SIGINT/SIGTERM and -timeout, stopping between sizes.
// Exit codes: 0 success, 1 usage error, 2 runtime failure.
//
// The shared observability flags are accepted too: -metrics <file> writes
// a JSON metrics snapshot on exit, -pprof <addr> serves live /debug/pprof,
// /debug/vars, and /metrics. Without either flag the instrumentation is
// disabled and costs nothing.
//
// By default only the kernel-threshold sizes (3^t - 1)/2 and their
// neighbors are printed; -all prints every size up to -max.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"anondyn/internal/cli"
	"anondyn/internal/core"
)

func main() {
	cli.Main("lowerbound", run)
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("lowerbound", flag.ContinueOnError)
	maxN := fs.Int("max", 1000, "largest size to tabulate")
	verify := fs.Bool("verify", false, "construct and verify the adversarial pair for each printed size")
	all := fs.Bool("all", false, "print every size, not just the threshold neighborhood")
	csv := fs.Bool("csv", false, "emit the series as CSV (n,indistinguishable_rounds,count_bound)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	obsCfg := cli.ObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	if *maxN < 1 {
		return cli.Usagef("-max must be >= 1, got %d", *maxN)
	}
	if *csv && *verify {
		return cli.Usagef("-verify prints a table column; it cannot be combined with -csv")
	}
	if err := obsCfg.Start(); err != nil {
		return err
	}
	defer func() { err = obsCfg.Finish(err) }()
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	sizes := selectSizes(*maxN, *all)
	if *csv {
		fmt.Fprintln(out, "n,indistinguishable_rounds,count_bound")
		for _, n := range sizes {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("stopped before n=%d: %w", n, err)
			}
			fmt.Fprintf(out, "%d,%d,%d\n", n, core.MaxIndistinguishableRounds(n), core.LowerBoundRounds(n))
		}
		return nil
	}
	fmt.Fprintf(out, "%8s  %22s  %16s", "n", "indist. rounds T(n)", "count bound T+1")
	if *verify {
		fmt.Fprintf(out, "  %s", "pair verified")
	}
	fmt.Fprintln(out)
	for _, n := range sizes {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("stopped before n=%d: %w", n, err)
		}
		t := core.MaxIndistinguishableRounds(n)
		fmt.Fprintf(out, "%8d  %22d  %16d", n, t, core.LowerBoundRounds(n))
		if *verify {
			status := "ok"
			pair, err := core.WorstCasePair(n)
			if err != nil {
				status = "ERROR: " + err.Error()
			} else if err := pair.Verify(); err != nil {
				status = "FAILED: " + err.Error()
			} else if ext, err := pair.Extend(2); err != nil {
				status = "ERROR: " + err.Error()
			} else if div, found := ext.FirstDivergence(); !found || div != t+1 {
				status = fmt.Sprintf("FAILED: diverged at %d, want %d", div, t+1)
			}
			fmt.Fprintf(out, "  %s", status)
			if status != "ok" {
				fmt.Fprintln(out)
				return fmt.Errorf("verification failed at n=%d", n)
			}
		}
		fmt.Fprintln(out)
	}
	return nil
}

// selectSizes picks the sizes to print: all of 1..max, or the thresholds
// (3^t-1)/2 with their immediate neighbors.
func selectSizes(max int, all bool) []int {
	if all {
		out := make([]int, 0, max)
		for n := 1; n <= max; n++ {
			out = append(out, n)
		}
		return out
	}
	seen := map[int]bool{}
	var out []int
	add := func(n int) {
		if n >= 1 && n <= max && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	add(1)
	add(2)
	for t := 1; ; t++ {
		th := core.MinSizeForRounds(t)
		if th > max {
			break
		}
		add(th - 1)
		add(th)
		add(th + 1)
	}
	add(max)
	return out
}
