// Package anondyn is a library for studying the cost of anonymity in
// dynamic networks, reproducing Di Luna and Baldoni, "Investigating the
// Cost of Anonymity on Dynamic Networks" (brief announcement at PODC 2015).
//
// The package is a thin facade over the implementation packages:
//
//   - internal/graph, internal/dynet: graphs, dynamic graphs, flooding,
//     dynamic diameter, persistent-distance classes 𝒢(PD)_h;
//   - internal/runtime: synchronous anonymous-broadcast execution engines
//     (sequential and sharded worker-pool), both context-aware: a run can be
//     canceled between rounds via RunSequentialCtx/RunShardedCtx, bounded
//     per round with Config.RoundDeadline, and a panicking process is
//     isolated and surfaced as a *ProcessPanicError instead of crashing the
//     program;
//   - internal/multigraph: the ℳ(DBL)ₖ dynamic bipartite labeled
//     multigraphs and the Lemma 1 transformation to 𝒢(PD)₂;
//   - internal/linalg, internal/kernel: the exact linear algebra behind
//     Lemmas 2-4 and the optimal leader-state count solver;
//   - internal/core: the lower bound, the worst-case adversary, and the
//     matching counting algorithm;
//   - internal/counting, internal/dissemination: baseline protocols
//     (star counting, the degree-oracle O(1) counter, push-sum, flooding
//     and token forwarding);
//   - internal/sweep: the experiment-campaign engine — declarative specs
//     expanded into independent jobs, a sharded work-stealing worker pool
//     with per-job deterministic seeds, and an append-only JSONL journal
//     that makes killed campaigns resumable (cmd/sweep is its CLI);
//   - internal/experiments, internal/figures: the reproduction harness.
//
// The quickest tour:
//
//	wc, _ := anondyn.WorstCaseAdversary(40)      // hardest network, |W|=40
//	res, _ := anondyn.CountOnMultigraph(wc.Schedule, 16)
//	fmt.Println(res.Rounds == anondyn.LowerBoundRounds(40)) // true
package anondyn

import (
	"anondyn/internal/core"
	"anondyn/internal/dynet"
	"anondyn/internal/kernel"
	"anondyn/internal/multigraph"
	"anondyn/internal/runtime"
)

// Re-exported types: see the originating packages for full documentation.
type (
	// Dynamic is a dynamic graph: one topology snapshot per round.
	Dynamic = dynet.Dynamic
	// Multigraph is a dynamic bipartite labeled multigraph in ℳ(DBL)ₖ.
	Multigraph = multigraph.Multigraph
	// LeaderView is the leader's complete knowledge after a number of
	// rounds.
	LeaderView = multigraph.LeaderView
	// Pair is a Lemma 5 adversarial pair of indistinguishable networks.
	Pair = core.Pair
	// CountResult is the output of a counting run.
	CountResult = core.CountResult
	// Interval is the set of network sizes consistent with a leader view.
	Interval = kernel.Interval
	// WorstCaseNetwork is the worst-case 𝒢(PD)₂ network for a given size.
	WorstCaseNetwork = core.WorstCaseNetwork
	// ProcessPanicError reports a process that panicked during a run; the
	// engines recover it, abort the run, and return it instead of crashing.
	ProcessPanicError = runtime.ProcessPanicError
	// RoundDeadlineError reports a round that exceeded Config.RoundDeadline.
	RoundDeadlineError = runtime.RoundDeadlineError
)

// LowerBoundRounds returns the exact counting lower bound for a network of
// n anonymous nodes: ⌊log₃(2n+1)⌋ + 1 rounds (Theorems 1-2).
func LowerBoundRounds(n int) int { return core.LowerBoundRounds(n) }

// MaxIndistinguishableRounds returns how long the worst-case adversary can
// keep sizes n and n+1 indistinguishable: ⌊log₃(2n+1)⌋ completed rounds.
func MaxIndistinguishableRounds(n int) int { return core.MaxIndistinguishableRounds(n) }

// WorstCasePair constructs the Lemma 5 adversarial pair for size n.
func WorstCasePair(n int) (*Pair, error) { return core.WorstCasePair(n) }

// WorstCaseAdversary builds the worst-case 𝒢(PD)₂ dynamic network for n
// counted nodes.
func WorstCaseAdversary(n int) (*WorstCaseNetwork, error) { return core.WorstCaseAdversary(n) }

// CountOnMultigraph runs the optimal leader-state counter on a ℳ(DBL)₂
// multigraph, terminating as soon as the count is uniquely determined.
func CountOnMultigraph(m *Multigraph, maxRounds int) (CountResult, error) {
	return core.CountOnMultigraph(m, maxRounds)
}

// SolveCountInterval computes the exact set of network sizes consistent
// with a leader view — the leader's residual uncertainty.
func SolveCountInterval(view LeaderView) (Interval, error) {
	return kernel.SolveCountInterval(view)
}
