// Command anondyn runs counting algorithms against dynamic-network
// adversaries and reports the count and the rounds used.
//
// The -algo flag selects an entry of the counting-algorithm zoo
// (counting.Registry); -adversary selects the network family, defaulting to
// a family compatible with the chosen algorithm. Incompatible combinations
// are rejected up front with the model assumption that failed.
//
// Usage:
//
//	anondyn -algo histtree -n 100              # history-tree counter, cycle
//	anondyn -algo histtree -adversary churn    # same, fair random churn
//	anondyn -algo leaderstate -n 40            # the paper's counter vs worst case
//	anondyn -algo oracle -n 40                 # layout-fed degree-oracle counter
//	anondyn -algo degreeoracle -n 40           # role-discovering O(1) counter
//	anondyn -algo star -n 40                   # one-round star counter
//	anondyn -algo histtree -adversary tinterval -n 20   # stability windows
//	anondyn -algo pushsum -adversary joinleave -n 20    # join/leave churn
//	anondyn -algo pushsum -n 40 -seed 7        # gossip estimate, fair churn
//	anondyn -algo chain -n 40 -chain 5         # Corollary 1 end to end
//	anondyn -algo star -n 40 -engine sharded   # same, on the sharded engine
//	anondyn -algo upperbound -n 40             # degree-bound baseline [15]
//	anondyn -algo anonymous -n 40              # anonymous-relay threading
//	anondyn -algo unconscious -n 40            # conscious vs unconscious [12]
//	anondyn -bound -n 123456                   # print the Theorem 1 bound
//	anondyn -pair -n 13                        # show the adversarial pair
//
// The run context is canceled on SIGINT/SIGTERM or when -timeout elapses;
// engine-backed algorithms then stop at the next round boundary. Exit
// codes: 0 success, 1 usage error, 2 runtime failure.
//
// The shared observability flags are accepted too: -metrics <file> writes
// a JSON snapshot of the run's counters and histograms (engine rounds,
// messages delivered, per-round wall time, solver calls) on exit, and
// -pprof <addr> serves live /debug/pprof, /debug/vars, and /metrics.
// Without either flag the instrumentation is disabled and costs nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"anondyn/internal/chainnet"
	"anondyn/internal/cli"
	"anondyn/internal/core"
	"anondyn/internal/counting"
)

func main() {
	cli.Main("anondyn", run)
}

// legacyAlgos are the subcommands predating the registry: experiments over
// the abstract multigraph model rather than engine-backed protocols.
var legacyAlgos = []string{"chain", "anonymous", "unconscious"}

// defaultAdversary picks the network family each registry algorithm is
// demonstrated on when -adversary is not given. incremental defaults to
// worstcase, not cycle: its drain length τ(k) = 3(k+1)² is calibrated for
// fast-mixing families, and on a cycle the accepting guess grows roughly
// quadratically in n (measured: n=12→k=27, n=16→54, n=20→92, n=24→141),
// so cycles outgrow the IncrementalRounds(3n) budget from n≈16 on.
var defaultAdversary = map[string]string{
	"histtree":     "cycle",
	"idcount":      "cycle",
	"incremental":  "worstcase",
	"leaderstate":  "worstcase",
	"upperbound":   "restricted",
	"oracle":       "restricted",
	"degreeoracle": "restricted",
	"star":         "star",
	"pushsum":      "churn",
}

var adversaryNames = []string{"worstcase", "cycle", "star", "churn", "restricted", "flooddelay", "tinterval", "joinleave", "randomized"}

// compatibleFamilies probes each adversary family with a tiny instance and
// returns, per algorithm, the families its Requirements accept — so -help
// answers "what can I run this on" from the registry itself rather than a
// hand-maintained table that would drift.
func compatibleFamilies() map[string][]string {
	probes := make(map[string]*counting.Instance, len(adversaryNames))
	for _, fam := range adversaryNames {
		if inst, err := buildInstance(fam, 4, 1); err == nil {
			probes[fam] = inst
		}
	}
	out := make(map[string][]string)
	for _, a := range counting.Registry() {
		for _, fam := range adversaryNames {
			if inst := probes[fam]; inst != nil && a.Requires.Validate(inst) == nil {
				out[a.Name] = append(out[a.Name], fam)
			}
		}
	}
	return out
}

func algoUsage() string {
	var b strings.Builder
	b.WriteString("counting algorithm; registry entries:\n")
	compat := compatibleFamilies()
	for _, a := range counting.Registry() {
		fmt.Fprintf(&b, "    \t%-12s %s — %s\n", a.Name, a.Semantics, a.Doc)
		fmt.Fprintf(&b, "    \t%-12s   adversaries: %s\n", "", strings.Join(compat[a.Name], " "))
	}
	fmt.Fprintf(&b, "    \tlegacy: %s", strings.Join(legacyAlgos, " | "))
	return b.String()
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("anondyn", flag.ContinueOnError)
	algo := fs.String("algo", "", algoUsage())
	adversary := fs.String("adversary", "", "network family: "+strings.Join(adversaryNames, " | ")+" (default: per-algorithm)")
	n := fs.Int("n", 13, "problem size: |W| for worstcase, outer nodes for restricted, non-leader nodes for star/churn, total nodes otherwise")
	chainLen := fs.Int("chain", 3, "static chain length for -algo chain")
	seed := fs.Int64("seed", 1, "seed for randomized adversaries")
	bound := fs.Bool("bound", false, "print the exact Theorem 1 bound for -n and exit")
	pair := fs.Bool("pair", false, "construct and describe the adversarial pair for -n and exit")
	engineName := fs.String("engine", "", "round engine: sequential (default; one shard on the calling goroutine) | sharded (GOMAXPROCS shards)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
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
	engine, err := counting.EngineByName(ctx, *engineName)
	if err != nil {
		return cli.Usagef("unknown engine %q (want sequential or sharded)", *engineName)
	}
	switch {
	case *bound:
		return printBound(out, *n)
	case *pair:
		return printPair(out, *n)
	}
	switch *algo {
	case "chain":
		return runChain(out, *n, *chainLen, engine)
	case "anonymous":
		return runAnonymous(out, *n)
	case "unconscious":
		return runUnconscious(out, *n)
	case "":
		return cli.Usagef("one of -algo, -bound, -pair is required")
	}
	entry, err := counting.Lookup(*algo)
	if err != nil {
		return cli.Usagef("unknown algorithm %q (registry: %s; legacy: %s)",
			*algo, strings.Join(counting.Names(), " "), strings.Join(legacyAlgos, " "))
	}
	return runRegistry(out, entry, *adversary, *n, *seed, engine)
}

// buildInstance constructs the named adversary family at problem size n.
func buildInstance(adversary string, n int, seed int64) (*counting.Instance, error) {
	switch adversary {
	case "worstcase":
		return counting.WorstCaseInstance(n)
	case "cycle":
		return counting.CycleInstance(n)
	case "star":
		return counting.StarInstance(n + 1)
	case "churn":
		return counting.ChurnInstance(n+1, seed)
	case "restricted":
		return counting.RestrictedPD2Instance(n)
	case "flooddelay":
		return counting.FloodDelayInstance(n)
	case "tinterval":
		return counting.TIntervalInstance(n, 3, seed)
	case "joinleave":
		return counting.JoinLeaveInstance(n, seed)
	case "randomized":
		return counting.RandomizedInstance(n, seed)
	default:
		return nil, cli.Usagef("unknown adversary %q (want %s)", adversary, strings.Join(adversaryNames, " | "))
	}
}

// runRegistry executes one registry algorithm on the chosen (or default)
// adversary, rejecting incompatible combinations before the run with the
// model assumption that failed.
func runRegistry(out io.Writer, entry *counting.Algorithm, adversary string, n int, seed int64, engine counting.Runner) error {
	if adversary == "" {
		adversary = defaultAdversary[entry.Name]
	}
	inst, err := buildInstance(adversary, n, seed)
	if err != nil {
		// A size the family cannot build is a bad argument, not a failed run.
		return cli.WrapUsage(err)
	}
	if err := entry.Requires.Validate(inst); err != nil {
		return cli.Usagef("%v; the default family for -algo %s is -adversary %s",
			err, entry.Name, defaultAdversary[entry.Name])
	}
	res, err := entry.Run(inst, engine)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "algorithm %s (%s) on %s:\n", entry.Name, entry.Semantics, inst.Name)
	fmt.Fprintf(out, "  %s\n", entry.Doc)
	switch entry.Semantics {
	case counting.SemExact:
		fmt.Fprintf(out, "  counted %d nodes in %d round(s) (true size %d)\n", res.Count, res.Rounds, inst.TrueN)
	case counting.SemUpperBound:
		fmt.Fprintf(out, "  bound %d in %d round(s) (true size %d)\n", res.Count, res.Rounds, inst.TrueN)
	case counting.SemEstimate:
		fmt.Fprintf(out, "  estimate %d after %d round(s) (true size %d)\n", res.Count, res.Rounds, inst.TrueN)
	}
	return nil
}

func printBound(out io.Writer, n int) error {
	t := core.MaxIndistinguishableRounds(n)
	fmt.Fprintf(out, "size n = %d\n", n)
	fmt.Fprintf(out, "indistinguishable for      T(n) = %d completed rounds\n", t)
	fmt.Fprintf(out, "counting lower bound     T(n)+1 = %d rounds\n", t+1)
	fmt.Fprintf(out, "kernel threshold   (3^%d - 1)/2 = %d <= n\n", t, core.MinSizeForRounds(t))
	return nil
}

func printPair(out io.Writer, n int) error {
	p, err := core.WorstCasePair(n)
	if err != nil {
		return err
	}
	if err := p.Verify(); err != nil {
		return err
	}
	fmt.Fprintf(out, "adversarial pair for n = %d:\n", n)
	fmt.Fprintf(out, "  M  has |W| = %d, M' has |W| = %d\n", p.M.W(), p.MPrime.W())
	fmt.Fprintf(out, "  leader views identical through %d completed rounds (verified)\n", p.Rounds)
	ext, err := p.Extend(2)
	if err != nil {
		return err
	}
	if div, found := ext.FirstDivergence(); found {
		fmt.Fprintf(out, "  views diverge at round %d once the schedule opens up\n", div)
	}
	view, err := p.M.LeaderView(p.Rounds)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  shared leader view: %s\n", view.Canonical())
	return nil
}

func runChain(out io.Writer, n, chainLen int, engine counting.Runner) error {
	nw, err := chainnet.Build(n, chainLen)
	if err != nil {
		return err
	}
	bound := core.LowerBoundRounds(n)
	res, err := chainnet.RunCount(nw, bound+nw.Delay()+5, engine)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "chain-composed network (Corollary 1), chain length %d:\n", chainLen)
	fmt.Fprintf(out, "  counted %d nodes in %d rounds = delay %d + bound %d\n",
		res.Count, res.Rounds, nw.Delay(), bound)
	return nil
}

func runAnonymous(out io.Writer, n int) error {
	m, err := core.WorstCaseSchedule(n)
	if err != nil {
		return err
	}
	res, err := core.AnonymousCountRounds(m, m.Horizon())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "anonymous-relay leader (content threading) vs worst-case adversary:\n")
	fmt.Fprintf(out, "  counted %d nodes in %d rounds — identical to the labeled bound %d\n",
		res.Count, res.Rounds, core.LowerBoundRounds(n))
	return nil
}

func runUnconscious(out io.Writer, n int) error {
	m, err := core.WorstCaseSchedule(n)
	if err != nil {
		return err
	}
	minRes, err := core.UnconsciousCount(m, core.GuessMin, m.Horizon())
	if err != nil {
		return err
	}
	maxRes, err := core.UnconsciousCount(m, core.GuessMax, m.Horizon())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "conscious vs unconscious counting on the worst case (n=%d):\n", n)
	fmt.Fprintf(out, "  conscious termination     : round %d\n", minRes.ConsciousAt)
	fmt.Fprintf(out, "  min-guess stable on truth : round %d\n", minRes.CorrectFrom)
	fmt.Fprintf(out, "  max-guess stable on truth : round %d (fooled by the size-%d twin)\n",
		maxRes.CorrectFrom, n+1)
	return nil
}
