package sweep

import (
	"context"
	"errors"
	"fmt"

	"anondyn/internal/counting"
	"anondyn/internal/runtime"
)

// The zoo campaign: every comparable counting algorithm from the
// counting.Registry measured on a pinned adversary family, so one journal
// holds the rounds-vs-n comparison the paper's cost-of-anonymity question
// is about. For the worst-case protos Job.N is |W| and every proto reports
// the total network size |V| = |W| + 3 as its count; the adversary-family
// protos take Job.N as the total node count. The protos are deterministic
// — the worst-case schedule ignores Job.Seed, the family schedules are
// pure functions of it — so the frozen EXPERIMENTS.md rows are
// reproducible byte-for-byte.

// Registered zoo protocol names. The first six run on the worst-case
// ℳ(DBL)₂ → 𝒢(PD)₂ family (degreeoracle included: Lemma 1's image is
// restricted, so the O(1) counter's flat-4-rounds row sits next to the
// Θ(log n) and Θ(n) curves it contrasts with). The last three measure the
// diversity families: the history-tree counter on T-interval and
// randomized dynamics, and push-sum estimation on join/leave churn. The
// oracle and star entries are absent by design: their model requirements
// (layout side-channel, 𝒢(PD)₁) add nothing over degreeoracle here.
const (
	ProtoZooHistTree     = "zoo-histtree"
	ProtoZooIDCount      = "zoo-idcount"
	ProtoZooIncremental  = "zoo-incremental"
	ProtoZooLeaderState  = "zoo-leaderstate"
	ProtoZooUpperBound   = "zoo-upperbound"
	ProtoZooDegreeOracle = "zoo-degreeoracle"
	ProtoZooTInterval    = "zoo-tinterval"
	ProtoZooJoinLeave    = "zoo-joinleave"
	ProtoZooRandomized   = "zoo-randomized"
)

// zooProto pairs a registry algorithm with the adversary-instance builder
// its campaign measures it on.
type zooProto struct {
	algo  string
	build func(job Job) (*counting.Instance, error)
}

func worstCaseBuild(job Job) (*counting.Instance, error) {
	return counting.WorstCaseInstance(job.N)
}

var zooProtos = map[string]zooProto{
	ProtoZooHistTree:     {"histtree", worstCaseBuild},
	ProtoZooIDCount:      {"idcount", worstCaseBuild},
	ProtoZooIncremental:  {"incremental", worstCaseBuild},
	ProtoZooLeaderState:  {"leaderstate", worstCaseBuild},
	ProtoZooUpperBound:   {"upperbound", worstCaseBuild},
	ProtoZooDegreeOracle: {"degreeoracle", worstCaseBuild},
	ProtoZooTInterval: {"histtree", func(job Job) (*counting.Instance, error) {
		return counting.TIntervalInstance(job.N, 3, job.Seed)
	}},
	ProtoZooJoinLeave: {"pushsum", func(job Job) (*counting.Instance, error) {
		return counting.JoinLeaveInstance(job.N, job.Seed)
	}},
	ProtoZooRandomized: {"histtree", func(job Job) (*counting.Instance, error) {
		return counting.RandomizedInstance(job.N, job.Seed)
	}},
}

// ZooAlgorithms maps each zoo proto to its registry algorithm.
var ZooAlgorithms = func() map[string]string {
	out := make(map[string]string, len(zooProtos))
	for proto, zp := range zooProtos {
		out[proto] = zp.algo
	}
	return out
}()

func init() {
	for proto, zp := range zooProtos {
		proto, zp := proto, zp
		Register(proto, func(ctx context.Context, job Job) (Result, error) {
			return zooRun(ctx, job, zp)
		})
	}
}

// zooRun executes one registry algorithm on the proto's instance at size
// job.N. An exact algorithm returning a wrong count is an execution fault
// (it would falsify the algorithm's correctness claim), as is an upper
// bound below the truth; an over-counting upper bound and a push-sum
// estimate are the expected measurements and are recorded as-is. The run
// honors ctx at round granularity, and a run that ctx stops is the job's
// error, not a measurement.
func zooRun(ctx context.Context, job Job, zp zooProto) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	inst, err := zp.build(job)
	if err != nil {
		return Result{}, err
	}
	if job.Horizon > inst.Horizon {
		inst.Horizon = job.Horizon
	}
	entry, err := counting.Lookup(zp.algo)
	if err != nil {
		return Result{}, err
	}
	res := Result{Key: job.Key, Proto: job.Proto, N: job.N, Trial: job.Trial}
	out, err := counting.RunAlgorithm(zp.algo, inst, runtime.SequentialEngine(ctx))
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			// Stopped, not measured: the job fails with its context.
			return Result{}, err
		}
		res.Rounds = -1
		res.Failed = true
		res.Err = err.Error()
		return res, nil
	}
	switch entry.Semantics {
	case counting.SemExact:
		if out.Count != inst.TrueN {
			return Result{}, fmt.Errorf("sweep: %s counted %d on %s (|V| = %d)",
				job.Key, out.Count, inst.Name, inst.TrueN)
		}
	case counting.SemUpperBound:
		if out.Count < inst.TrueN {
			return Result{}, fmt.Errorf("sweep: %s bound %d below the true size %d",
				job.Key, out.Count, inst.TrueN)
		}
	}
	res.Rounds = out.Rounds
	res.Count = out.Count
	return res, nil
}

// BuiltinSet returns a named built-in multi-spec campaign set — several
// specs whose journal rows share one file and aggregate into one combined
// table:
//
//   - "zoo": the comparative counting-algorithm campaign frozen into
//     EXPERIMENTS.md — six registry algorithms on the worst-case family
//     plus the three adversary-diversity specs. The incremental counter's
//     grid stops earlier: its round count grows cubically, so the larger
//     sizes would dominate the whole campaign's wall time without adding
//     information; the join/leave grid stops at the same point because
//     push-sum's convergence rounds grow with the churn horizon.
//   - "zoo-smoke": a seconds-scale subset for CI.
func BuiltinSet(name string) ([]Spec, bool) {
	switch name {
	case "zoo":
		full := []int{4, 13, 40, 121}
		short := []int{4, 13, 40}
		return []Spec{
			{Name: "zoo-histtree", Proto: ProtoZooHistTree, Sizes: full, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-idcount", Proto: ProtoZooIDCount, Sizes: full, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-incremental", Proto: ProtoZooIncremental, Sizes: short, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-leaderstate", Proto: ProtoZooLeaderState, Sizes: full, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-upperbound", Proto: ProtoZooUpperBound, Sizes: full, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-degreeoracle", Proto: ProtoZooDegreeOracle, Sizes: full, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-tinterval", Proto: ProtoZooTInterval, Sizes: full, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-joinleave", Proto: ProtoZooJoinLeave, Sizes: short, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-randomized", Proto: ProtoZooRandomized, Sizes: full, Trials: 1, Horizon: 1, Seed: 99},
		}, true
	case "zoo-smoke":
		sizes := []int{4, 7}
		return []Spec{
			{Name: "zoo-histtree", Proto: ProtoZooHistTree, Sizes: sizes, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-idcount", Proto: ProtoZooIDCount, Sizes: sizes, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-incremental", Proto: ProtoZooIncremental, Sizes: sizes, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-leaderstate", Proto: ProtoZooLeaderState, Sizes: sizes, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-upperbound", Proto: ProtoZooUpperBound, Sizes: sizes, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-degreeoracle", Proto: ProtoZooDegreeOracle, Sizes: sizes, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-tinterval", Proto: ProtoZooTInterval, Sizes: sizes, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-joinleave", Proto: ProtoZooJoinLeave, Sizes: sizes, Trials: 1, Horizon: 1, Seed: 99},
			{Name: "zoo-randomized", Proto: ProtoZooRandomized, Sizes: sizes, Trials: 1, Horizon: 1, Seed: 99},
		}, true
	}
	return nil, false
}
