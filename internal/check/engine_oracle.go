package check

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// referenceRun is the paper's round loop in its plainest form, written
// independently of internal/runtime so the engine oracle compares two
// implementations. Each round every process broadcasts, then each node
// receives its neighbors' messages in the map graph Net.Snapshot(r),
// ordered by (ordering key, sender id). It honors MaxRounds, OnRound and
// Stop, and has no context, deadline, metrics, panic recovery or degree
// oracle.
func referenceRun(cfg *runtime.Config) (int, error) {
	if cfg.Adaptive != nil || cfg.IntervalConnected {
		return 0, errors.New("check: the reference loop runs oblivious networks without a connectivity check")
	}
	n := cfg.Net.N()
	if len(cfg.Procs) != n {
		return 0, fmt.Errorf("check: %d processes for %d nodes", len(cfg.Procs), n)
	}
	key := cfg.CanonKey
	if key == nil {
		canon := cfg.Canon
		if canon == nil {
			canon = runtime.DefaultCanon
		}
		key = func(m runtime.Message) uint64 { return runtime.StringKey(canon(m)) }
	}
	type sent struct {
		key  uint64
		from graph.NodeID
		msg  runtime.Message
	}
	outbox := make([]sent, n)
	for r := 0; r < cfg.MaxRounds; r++ {
		g := cfg.Net.Snapshot(r)
		for v, p := range cfg.Procs {
			m := p.Send(r)
			outbox[v] = sent{key: key(m), from: graph.NodeID(v), msg: m}
		}
		inboxes := make([][]runtime.Message, n)
		for v := range inboxes {
			var in []sent
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				in = append(in, outbox[u])
			}
			slices.SortFunc(in, func(a, b sent) int {
				return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.from, b.from))
			})
			for _, s := range in {
				inboxes[v] = append(inboxes[v], s.msg)
			}
		}
		for v, p := range cfg.Procs {
			p.Receive(r, inboxes[v])
		}
		if cfg.OnRound != nil {
			cfg.OnRound(r)
		}
		if cfg.Stop != nil && cfg.Stop(r) {
			return r + 1, nil
		}
	}
	return cfg.MaxRounds, nil
}

// traceProc is the order-sensitive protocol the engine-equivalence oracle
// runs: every node starts with a distinct state (its index) and folds each
// round's inbox into an FNV hash *in delivery order*, so two executions
// agree on every trace entry iff they delivered identical message sequences
// to every node in every round. Any divergence — a dropped message, a
// permuted inbox, a skipped round — cascades into all later states.
type traceProc struct {
	state string
	trace []string
}

func (p *traceProc) Send(int) runtime.Message { return p.state }

func (p *traceProc) Receive(_ int, msgs []runtime.Message) {
	h := fnv.New64a()
	h.Write([]byte(p.state))
	for _, m := range msgs {
		h.Write([]byte{0})
		h.Write([]byte(m.(string)))
	}
	p.state = strconv.FormatUint(h.Sum64(), 10)
	p.trace = append(p.trace, p.state)
}

func newTraceProcs(n int) []runtime.Process {
	procs := make([]runtime.Process, n)
	for i := range procs {
		procs[i] = &traceProc{state: strconv.Itoa(i)}
	}
	return procs
}

// traceKey is the ordering key of traceProc's string messages.
func traceKey(m runtime.Message) uint64 { return runtime.StringKey(m.(string)) }

// shardedEngineOracle is the differential check for runtime's round loop:
// RunSharded must reproduce the reference loop's execution trace-for-trace
// at every shard count — same round count, same per-node state after every
// round. One shard runs on the calling goroutine, as RunSequential does;
// two and five run on workers. Half the draws are the Lemma-1
// transformation of a random schedule (exercising the CSR-native PD2Net
// snapshots, while the reference reads its map graphs), the other half are
// dynet adversary families — T-interval, churn, randomized — which reach
// the engine through its map-graph fallback.
func shardedEngineOracle() *Oracle {
	return &Oracle{
		Name: "sharded-engine",
		Doc:  "RunSharded at 1, 2 and 5 shards matches the reference round loop trace-for-trace on CSR transforms and adversary families",
		Gen: func(rng *rand.Rand) (*Instance, error) {
			if rng.Intn(2) == 0 {
				return genFamily(rng, "")
			}
			return genSchedule(rng, 10, 4)
		},
		Check: func(inst *Instance, sys *System) error {
			var refNet, shNet dynet.Dynamic
			var rounds int
			if inst.Fam != nil {
				d, _, err := buildFamilyNet(inst.Fam, sys)
				if err != nil {
					return err
				}
				refNet, shNet = d, d
				rounds = inst.Fam.Rounds
			} else {
				m := inst.M
				var err error
				refNet, _, err = m.ToPD2()
				if err != nil {
					return err
				}
				shNet, _, err = m.ToPD2CSR()
				if err != nil {
					return err
				}
				// One round past the horizon exercises the repeat-final-round
				// clamp on both transforms.
				rounds = m.Horizon() + 1
			}
			n := refNet.N()
			refProcs := newTraceProcs(n)
			refRounds, err := sys.EngineSeq(&runtime.Config{
				Net: refNet, Procs: refProcs, MaxRounds: rounds, CanonKey: traceKey,
			})
			if err != nil {
				return err
			}
			for _, shards := range []int{1, 2, 5} {
				procs := newTraceProcs(n)
				shRounds, err := sys.EngineSharded(&runtime.Config{
					Net: shNet, Procs: procs, MaxRounds: rounds, CanonKey: traceKey, Shards: shards,
				})
				if err != nil {
					return fmt.Errorf("sharded (%d shards): %w", shards, err)
				}
				if shRounds != refRounds {
					return fmt.Errorf("sharded (%d shards) ran %d rounds, the reference ran %d",
						shards, shRounds, refRounds)
				}
				for v := 0; v < n; v++ {
					a, b := refProcs[v].(*traceProc), procs[v].(*traceProc)
					if len(a.trace) != len(b.trace) {
						return fmt.Errorf("sharded (%d shards): node %d has %d trace entries, the reference %d",
							shards, v, len(b.trace), len(a.trace))
					}
					for r := range a.trace {
						if a.trace[r] != b.trace[r] {
							return fmt.Errorf("sharded (%d shards): node %d diverges at round %d: %s vs reference %s",
								shards, v, r, b.trace[r], a.trace[r])
						}
					}
				}
			}
			return nil
		},
		Mutants: []Mutant{
			// A sharded engine that quietly runs one round short: every
			// trace is a prefix of the reference one, so only a check that
			// compares round counts (not just common-prefix states) sees it.
			{Name: "sharded-round-drop", Sys: func(sys *System) {
				inner := sys.EngineSharded
				sys.EngineSharded = func(cfg *runtime.Config) (int, error) {
					c := *cfg
					if c.MaxRounds > 0 {
						c.MaxRounds--
					}
					return inner(&c)
				}
			}},
			// A sharded engine that sorts deliveries by the key with its
			// bits flipped, which reverses the order of distinct keys: inbox
			// contents are identical, only their order differs — caught
			// exactly because traceProc's fold is order-sensitive.
			{Name: "sharded-order-flip", Sys: func(sys *System) {
				inner := sys.EngineSharded
				sys.EngineSharded = func(cfg *runtime.Config) (int, error) {
					c := *cfg
					orig := c.CanonKey
					c.CanonKey = func(m runtime.Message) uint64 { return ^orig(m) }
					return inner(&c)
				}
			}},
		},
	}
}
