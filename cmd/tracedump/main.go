// Command tracedump records a full execution of the chain-composed
// counting protocol and writes it as JSON: every round's topology, every
// broadcast, every inbox. Useful for inspecting exactly what the leader
// saw — e.g. to diff the transcripts of an indistinguishable pair.
//
// Usage:
//
//	tracedump -n 13 -chain 2 [-o trace.json] [-twin] [-timeout 30s]
//
// Recording honors SIGINT/SIGTERM and -timeout.
// Exit codes: 0 success, 1 usage error, 2 runtime failure.
//
// The shared observability flags are accepted too: -metrics <file> writes
// a JSON metrics snapshot on exit, -pprof <addr> serves live /debug/pprof,
// /debug/vars, and /metrics. Without either flag the instrumentation is
// disabled and costs nothing.
//
// With -twin the network runs the size-(n+1) twin schedule M' instead; the
// leader transcript is byte-identical through the indistinguishability
// horizon (compare two dumps to see it).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"anondyn/internal/chainnet"
	"anondyn/internal/cli"
	"anondyn/internal/core"
)

func main() {
	cli.Main("tracedump", run)
}

func run(ctx context.Context, args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	n := fs.Int("n", 13, "number of counted nodes")
	chainLen := fs.Int("chain", 0, "static chain length")
	outPath := fs.String("o", "", "output file (default: stdout)")
	twin := fs.Bool("twin", false, "run the size-(n+1) twin schedule M' instead of M")
	rounds := fs.Int("rounds", 0, "rounds to record (default: the indistinguishability horizon)")
	timeout := fs.Duration("timeout", 0, "abort recording after this duration (0 = no limit)")
	obsCfg := cli.ObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return cli.WrapUsage(err)
	}
	if *n < 1 {
		return cli.Usagef("-n must be >= 1, got %d", *n)
	}
	if *chainLen < 0 {
		return cli.Usagef("-chain must be >= 0, got %d", *chainLen)
	}
	if err := obsCfg.Start(); err != nil {
		return err
	}
	defer func() { err = obsCfg.Finish(err) }()
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return err
	}
	pair, err := core.WorstCasePair(*n)
	if err != nil {
		return err
	}
	schedule := pair.M
	if *twin {
		schedule = pair.MPrime
	}
	nw, err := chainnet.BuildFromSchedule(schedule, *chainLen)
	if err != nil {
		return err
	}
	record := *rounds
	if record <= 0 {
		record = pair.Rounds
	}
	tr, err := chainnet.RecordTrace(ctx, nw, record)
	if err != nil {
		return err
	}
	data, err := tr.ToJSON()
	if err != nil {
		return err
	}
	if *outPath == "" {
		_, err = stdout.Write(append(data, '\n'))
		return err
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d rounds (%d bytes) to %s\n", len(tr.Rounds), len(data), *outPath)
	return nil
}
