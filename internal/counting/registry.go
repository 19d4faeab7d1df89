package counting

import (
	"context"
	"fmt"
	"math"
	"sort"

	"anondyn/internal/chainnet"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/histtree"
	"anondyn/internal/multigraph"
	"anondyn/internal/runtime"
)

// This file is the counting-algorithm zoo: a registry unifying every
// counting protocol in the repository — the paper's own leader-state
// counter and its follow-up literature — behind one name → (constructor,
// termination semantics, model requirements) mapping, so cmd/anondyn,
// sweep campaigns, and check oracles can enumerate and run all of them on
// any dynet adversary whose model assumptions hold.

// Semantics classifies what an algorithm's output promises.
type Semantics string

const (
	// SemExact: the output equals |V| whenever the requirements hold.
	SemExact Semantics = "exact"
	// SemUpperBound: the output is an upper bound on |V|.
	SemUpperBound Semantics = "upper-bound"
	// SemEstimate: the output converges to |V| but carries no hard
	// guarantee (gossip-style estimation).
	SemEstimate Semantics = "estimate"
)

// Requirements states the model assumptions an algorithm needs. Validate
// rejects instances that do not carry them, with an error naming the
// missing assumption — the satellite contract for cmd/anondyn's
// algorithm/adversary matching.
type Requirements struct {
	// IntervalConnected: every round's snapshot must be connected
	// (1-interval connectivity). The algorithms that need it run with
	// runtime.Config.IntervalConnected, so the engine checks each round
	// they execute; Validate only rejects families whose declared
	// properties rule it out.
	IntervalConnected bool
	// RestrictedPD2: the instance must carry a restricted 𝒢(PD)₂ layer
	// layout (V₁ relays, V₂ outer nodes).
	RestrictedPD2 bool
	// DegreeBound: the instance must carry an a-priori bound on node
	// degrees (MaxDegree).
	DegreeBound bool
	// Star: the leader must be adjacent to every node at round 0.
	Star bool
	// Fair: the adversary must be fair/randomized, not worst-case —
	// required by convergence-based estimators.
	Fair bool
	// Multigraph: the instance must carry the underlying ℳ(DBL)₂
	// multigraph schedule (abstract leader-view algorithms).
	Multigraph bool
}

// Validate reports nil when inst satisfies the requirements, else an error
// naming the first violated assumption.
func (rq Requirements) Validate(inst *Instance) error {
	if inst == nil {
		return fmt.Errorf("counting: nil instance")
	}
	if inst.Net == nil && !rq.Multigraph {
		return fmt.Errorf("counting: instance %q carries no dynamic network", inst.Name)
	}
	if rq.IntervalConnected && inst.Props != nil {
		// Declared adversary-family properties are authoritative: a family
		// that does not guarantee connected snapshots — or that guarantees
		// it only on the live-induced subgraph, leaving churned-out nodes
		// isolated — cannot serve a 1-interval-connected algorithm.
		if !inst.Props.IntervalConnected {
			return fmt.Errorf("counting: algorithm needs 1-interval connectivity, which instance %q's adversary family does not declare", inst.Name)
		}
		if inst.Props.LiveAccounting {
			return fmt.Errorf("counting: algorithm needs every snapshot connected, but instance %q's join/leave adversary isolates churned-out nodes", inst.Name)
		}
	}
	if rq.Multigraph && inst.M == nil {
		return fmt.Errorf("counting: algorithm needs the ℳ(DBL)₂ multigraph schedule, which instance %q does not carry", inst.Name)
	}
	if rq.RestrictedPD2 && (len(inst.V1) == 0 || len(inst.V2) == 0) {
		return fmt.Errorf("counting: algorithm needs a restricted 𝒢(PD)₂ layer layout (V₁/V₂), which instance %q does not carry", inst.Name)
	}
	if rq.DegreeBound && inst.MaxDegree <= 0 {
		return fmt.Errorf("counting: algorithm needs an a-priori degree bound, which instance %q does not carry", inst.Name)
	}
	if rq.Star && inst.Net != nil {
		if deg := inst.Net.Snapshot(0).Degree(inst.Leader); deg != inst.Net.N()-1 {
			return fmt.Errorf("counting: algorithm needs the leader adjacent to all %d nodes at round 0, but instance %q gives it degree %d",
				inst.Net.N()-1, inst.Name, deg)
		}
	}
	if rq.Fair && !inst.Fair {
		return fmt.Errorf("counting: algorithm needs a fair (randomized) adversary, but instance %q is worst-case", inst.Name)
	}
	return nil
}

// Instance is one runnable counting scenario: an adversary plus the
// side information the various model extensions consume. Builders for the
// standard families live in instances.go.
type Instance struct {
	// Name identifies the adversary family in error messages and tables.
	Name string
	// Net is the dynamic network; nil only for purely abstract instances.
	Net dynet.Dynamic
	// Leader is the distinguished counting node.
	Leader graph.NodeID
	// V1, V2 are the restricted-PD₂ layers when the family provides them.
	V1, V2 []graph.NodeID
	// M is the underlying ℳ(DBL)₂ schedule when the family provides it.
	M *multigraph.Multigraph
	// MaxDegree is an a-priori degree bound when the family provides one.
	MaxDegree int
	// Horizon is the round budget offered to the algorithms.
	Horizon int
	// TrueN is the ground-truth node count, for drivers and tables — it
	// is never handed to an algorithm.
	TrueN int
	// Fair marks randomized (non-worst-case) adversaries.
	Fair bool
	// Props, when non-nil, are the declared (and conformance-verified)
	// dynet adversary-family properties of Net; Validate enforces
	// connectivity requirements against them.
	Props *dynet.Properties
}

// Result is an algorithm's outcome on an instance. Count is always in
// units of total network size |V|, whatever the protocol's native output.
type Result struct {
	Count  int
	Rounds int
}

// Algorithm is one registry entry.
type Algorithm struct {
	// Name selects the algorithm in cmd/anondyn and sweep specs.
	Name string
	// Doc is a one-line description for -help output.
	Doc string
	// Semantics classifies the output promise.
	Semantics Semantics
	// Requires are the model assumptions, checked before Run.
	Requires Requirements
	// Run executes the algorithm on the instance with the given engine.
	Run func(inst *Instance, run Runner) (Result, error)
}

// Registry returns every counting algorithm in deterministic order.
func Registry() []Algorithm {
	return []Algorithm{
		{
			Name:      "histtree",
			Doc:       "history-tree exact counter, O(n) rounds on any 1-interval-connected network (arXiv:2204.02128)",
			Semantics: SemExact,
			Requires:  Requirements{IntervalConnected: true},
			Run: func(inst *Instance, run Runner) (Result, error) {
				c, r, err := histtree.Count(inst.Net, inst.Leader, inst.Horizon, run)
				return Result{Count: c, Rounds: r}, err
			},
		},
		{
			Name:      "idcount",
			Doc:       "non-anonymous ID-flooding counter, the unique-identifier baseline [9]",
			Semantics: SemExact,
			Requires:  Requirements{IntervalConnected: true},
			Run: func(inst *Instance, run Runner) (Result, error) {
				c, r, err := IDCount(inst.Net, inst.Leader, inst.Horizon, run)
				return Result{Count: c, Rounds: r}, err
			},
		},
		{
			Name:      "incremental",
			Doc:       "guess-and-verify incremental counter, polynomial rounds (arXiv:1603.05459)",
			Semantics: SemExact,
			Requires:  Requirements{IntervalConnected: true},
			Run: func(inst *Instance, run Runner) (Result, error) {
				// The guess schedule is polynomial, so the budget must be
				// too: extend the instance budget to cover guesses up to
				// 3·|V| (budget sizing only — the protocol never sees n).
				budget := inst.Horizon
				if b := IncrementalRounds(3 * inst.Net.N()); b > budget {
					budget = b
				}
				c, r, err := IncrementalCount(inst.Net, inst.Leader, budget, run)
				return Result{Count: c, Rounds: r}, err
			},
		},
		{
			Name:      "leaderstate",
			Doc:       "the paper's optimal leader-state exact counter on the ℳ(DBL)₂ schedule, ⌊log₃(2|W|+1)⌋+1 rounds",
			Semantics: SemExact,
			Requires:  Requirements{Multigraph: true},
			Run: func(inst *Instance, run Runner) (Result, error) {
				// Message-level execution via the chain network with zero
				// delay; the native count is |W|, reported as |V| = |W|+k+1.
				nw, err := chainnet.BuildFromSchedule(inst.M, 0)
				if err != nil {
					return Result{}, err
				}
				res, err := chainnet.RunCount(nw, inst.Horizon, run)
				if err != nil {
					return Result{}, err
				}
				return Result{Count: res.Count + inst.M.K() + 1, Rounds: res.Rounds}, nil
			},
		},
		{
			Name:      "upperbound",
			Doc:       "degree-bound geometric-sum upper bound [15], constant rounds, over-counts",
			Semantics: SemUpperBound,
			Requires:  Requirements{DegreeBound: true},
			Run: func(inst *Instance, run Runner) (Result, error) {
				depth := 8
				if inst.Horizon < depth {
					depth = inst.Horizon
				}
				res, err := UpperBoundCount(inst.Net, inst.Leader, inst.MaxDegree, depth, run)
				if err != nil {
					return Result{}, err
				}
				return Result{Count: res.Bound, Rounds: res.Rounds}, nil
			},
		},
		{
			Name:      "oracle",
			Doc:       "degree-oracle O(1) exact counter on restricted 𝒢(PD)₂ (the paper's Discussion)",
			Semantics: SemExact,
			Requires:  Requirements{RestrictedPD2: true},
			Run: func(inst *Instance, run Runner) (Result, error) {
				c, r, err := OracleCount(inst.Net, inst.Leader, inst.V1, inst.V2, run)
				return Result{Count: c, Rounds: r}, err
			},
		},
		{
			Name:      "degreeoracle",
			Doc:       "role-discovering degree-oracle O(1) exact counter, 4 rounds with no layout side-channel",
			Semantics: SemExact,
			Requires:  Requirements{RestrictedPD2: true},
			Run: func(inst *Instance, run Runner) (Result, error) {
				c, r, err := DegreeOracleCount(inst.Net, inst.Leader, inst.V1, inst.V2, run)
				return Result{Count: c, Rounds: r}, err
			},
		},
		{
			Name:      "star",
			Doc:       "one-round exact counter on 𝒢(PD)₁ stars — anonymity is free at distance 1",
			Semantics: SemExact,
			Requires:  Requirements{Star: true},
			Run: func(inst *Instance, run Runner) (Result, error) {
				c, r, err := StarCount(inst.Net, inst.Leader, run)
				return Result{Count: c, Rounds: r}, err
			},
		},
		{
			Name:      "pushsum",
			Doc:       "push-sum gossip size estimation under fair adversaries (Kempe et al. [8])",
			Semantics: SemEstimate,
			Requires:  Requirements{Fair: true},
			Run: func(inst *Instance, run Runner) (Result, error) {
				res, err := PushSumEstimate(inst.Net, inst.Leader, 1e-6, 3, inst.Horizon, run)
				if err != nil {
					return Result{}, err
				}
				return Result{Count: int(math.Round(res.Estimate)), Rounds: res.Rounds}, nil
			},
		},
	}
}

// Names returns the sorted registry names.
func Names() []string {
	algos := Registry()
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}

// Lookup resolves one algorithm by name.
func Lookup(name string) (*Algorithm, error) {
	for _, a := range Registry() {
		if a.Name == name {
			a := a
			return &a, nil
		}
	}
	return nil, fmt.Errorf("counting: unknown algorithm %q (have %v)", name, Names())
}

// RunAlgorithm validates inst against the algorithm's requirements and
// executes it — the single entry point used by cmd/anondyn and the zoo
// sweep campaign.
func RunAlgorithm(name string, inst *Instance, run Runner) (Result, error) {
	a, err := Lookup(name)
	if err != nil {
		return Result{}, err
	}
	if err := a.Requires.Validate(inst); err != nil {
		return Result{}, fmt.Errorf("%w (algorithm %q)", err, name)
	}
	return a.Run(inst, run)
}

// EngineByName resolves the shared -engine flag value to a Runner bound to
// ctx: "" or "sequential" for one shard on the calling goroutine, "sharded"
// for GOMAXPROCS shards.
func EngineByName(ctx context.Context, name string) (Runner, error) {
	switch name {
	case "", "sequential":
		return runtime.SequentialEngine(ctx), nil
	case "sharded":
		return runtime.ShardedEngine(ctx), nil
	default:
		return nil, fmt.Errorf("counting: unknown engine %q (want sequential or sharded)", name)
	}
}
