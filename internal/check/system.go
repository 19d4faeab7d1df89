package check

import (
	"context"
	"math/big"

	"anondyn/internal/chainnet"
	"anondyn/internal/core"
	"anondyn/internal/counting"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/histtree"
	"anondyn/internal/kernel"
	"anondyn/internal/linalg"
	"anondyn/internal/multigraph"
	"anondyn/internal/runtime"
)

// IncrementalAdder is the slice of kernel.IncrementalSolver the oracles
// depend on, as an interface so a mutation can interpose on it.
type IncrementalAdder interface {
	AddRoundIndexed([]multigraph.IndexedObsEntry) (kernel.Interval, error)
}

// System bundles the implementations under test. Every oracle routes its
// calls to the layers it cross-checks through these hooks, so the mutation
// smoke test can swap in a deliberately broken variant of one layer and
// verify that the oracle notices. Production runs use Healthy().
type System struct {
	// Solve is the O(3^t) batch solver (kernel.SolveCountInterval).
	Solve func(multigraph.LeaderView) (kernel.Interval, error)
	// NewIncremental creates the per-round incremental solver.
	NewIncremental func() IncrementalAdder
	// Enumerate is the general-k exact enumerator (kernel.EnumerateSizes).
	Enumerate func(view multigraph.LeaderView, k int, limits kernel.EnumLimits) ([]int, error)
	// Eliminate is the dense rational-elimination solver (EliminationSizes).
	Eliminate func(view multigraph.LeaderView) ([]int, error)
	// Kernel is the closed-form kernel vector (kernel.ClosedFormKernel).
	Kernel func(r int) linalg.Vector
	// KernelSumNeg and KernelSumPos are the Lemma 4 sums.
	KernelSumNeg func(r int) *big.Int
	KernelSumPos func(r int) *big.Int
	// MaxIndist and MinSizeFor are the Theorem 1 closed forms.
	MaxIndist  func(n int) int
	MinSizeFor func(t int) int
	// WorstRounds measures the leader-state counter on the worst-case
	// schedule (core.WorstCaseCountRounds).
	WorstRounds func(n int) (core.CountResult, error)
	// ChainRounds is the delayed-view composition (core.ChainCountRounds).
	ChainRounds func(n, delay int) (core.CountResult, error)
	// MsgCount runs the message-level chain protocol to termination
	// (chainnet.RunCount on the sequential engine).
	MsgCount func(nw *chainnet.Network, maxRounds int) (chainnet.CountResult, error)
	// HistCount runs the history-tree counter to termination
	// (histtree.Count on the sequential engine).
	HistCount func(net dynet.Dynamic, leader graph.NodeID, maxRounds int) (count, rounds int, err error)
	// Transform is the Lemma-1 multigraph → 𝒢(PD)₂ transformation.
	Transform func(m *multigraph.Multigraph) (dynet.Dynamic, *multigraph.PD2Layout, error)
	// EngineSeq is the reference round loop (referenceRun), written apart
	// from internal/runtime: the semantics the engine must match.
	EngineSeq runtime.Engine
	// EngineSharded is runtime's round loop at any shard count
	// (runtime.RunSharded).
	EngineSharded runtime.Engine
	// Limits budgets the general-k enumerator.
	Limits kernel.EnumLimits
	// PairK is the general-k Lemma-5 pair construction
	// (core.IndistinguishablePairK).
	PairK func(n, rounds, k int) (*core.Pair, error)
	// KernelK is the general-k closed-form kernel (kernel.ClosedFormKernelK).
	KernelK func(r, k int) (linalg.Vector, error)
	// KernelSumNegK is the general-k Lemma-4 negative kernel sum.
	KernelSumNegK func(r, k int) (*big.Int, error)
	// MaxIndistK is the general-k horizon closed form
	// (core.MaxIndistinguishableRoundsK).
	MaxIndistK func(n, k int) int
	// DegOracleCount runs the role-discovering degree-oracle counter to
	// termination (counting.DegreeOracleCount on the sequential engine).
	DegOracleCount func(net dynet.Dynamic, leader graph.NodeID, v1, v2 []graph.NodeID) (count, rounds int, err error)
	// LayoutOracleCount runs the layout-fed degree-oracle counter
	// (counting.OracleCount on the sequential engine).
	LayoutOracleCount func(net dynet.Dynamic, leader graph.NodeID, v1, v2 []graph.NodeID) (count, rounds int, err error)
	// NewTInterval builds the stability-window adversary (dynet.NewTInterval).
	NewTInterval func(n, window int, p float64, seed int64) (dynet.Dynamic, error)
	// NewChurn builds the join/leave churn adversary (dynet.NewChurn).
	NewChurn func(n, core, dwell int, policy dynet.RejoinPolicy, p float64, seed int64) (dynet.LiveTracker, error)
	// VerifyProps is the adversary-family conformance verifier
	// (dynet.VerifyProperties).
	VerifyProps func(d dynet.Dynamic, p dynet.Properties, rounds int) error
}

// Healthy wires the System to the real implementations.
func Healthy() *System {
	return &System{
		Solve: kernel.SolveCountInterval,
		NewIncremental: func() IncrementalAdder {
			return kernel.NewIncrementalSolver()
		},
		Enumerate:    kernel.EnumerateSizes,
		Eliminate:    EliminationSizes,
		Kernel:       kernel.ClosedFormKernel,
		KernelSumNeg: kernel.KernelSumNegative,
		KernelSumPos: kernel.KernelSumPositive,
		MaxIndist:    core.MaxIndistinguishableRounds,
		MinSizeFor:   core.MinSizeForRounds,
		WorstRounds:  core.WorstCaseCountRounds,
		ChainRounds:  core.ChainCountRounds,
		MsgCount: func(nw *chainnet.Network, maxRounds int) (chainnet.CountResult, error) {
			return chainnet.RunCount(nw, maxRounds, runtime.SequentialEngine(context.Background()))
		},
		HistCount: func(net dynet.Dynamic, leader graph.NodeID, maxRounds int) (int, int, error) {
			return histtree.Count(net, leader, maxRounds, runtime.SequentialEngine(context.Background()))
		},
		Transform: func(m *multigraph.Multigraph) (dynet.Dynamic, *multigraph.PD2Layout, error) {
			return m.ToPD2()
		},
		EngineSeq:     referenceRun,
		EngineSharded: runtime.RunSharded,
		PairK:         core.IndistinguishablePairK,
		KernelK:       kernel.ClosedFormKernelK,
		KernelSumNegK: kernel.KernelSumNegativeK,
		MaxIndistK:    core.MaxIndistinguishableRoundsK,
		DegOracleCount: func(net dynet.Dynamic, leader graph.NodeID, v1, v2 []graph.NodeID) (int, int, error) {
			return counting.DegreeOracleCount(net, leader, v1, v2, runtime.SequentialEngine(context.Background()))
		},
		LayoutOracleCount: func(net dynet.Dynamic, leader graph.NodeID, v1, v2 []graph.NodeID) (int, int, error) {
			return counting.OracleCount(net, leader, v1, v2, runtime.SequentialEngine(context.Background()))
		},
		NewTInterval: func(n, window int, p float64, seed int64) (dynet.Dynamic, error) {
			return dynet.NewTInterval(n, window, p, seed)
		},
		NewChurn: func(n, core, dwell int, policy dynet.RejoinPolicy, p float64, seed int64) (dynet.LiveTracker, error) {
			return dynet.NewChurn(n, core, dwell, policy, p, seed)
		},
		VerifyProps: dynet.VerifyProperties,
	}
}
