package runtime

import (
	"cmp"
	"context"
	"fmt"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// RunSharded executes the configured computation on Config.Shards shards
// (GOMAXPROCS when zero), each a contiguous partition of the node range.
// One shard runs on the calling goroutine; more run on a fixed pool of
// worker goroutines, one per shard. It implements the same semantics as
// RunSequential — same round counts, same delivery order, same errors.
// Per-node state lives in flat struct-of-arrays buffers and each round's
// inboxes are assembled into one engine-owned arena, which is what keeps a
// 10⁶-node round loop allocation-free in steady state.
//
// Each shard builds its own receivers' inboxes from the round's CSR rows,
// which list senders in ascending id order, and sorts each inbox that is
// not already in key order stably by ordering key: every inbox lists its
// senders by (key, id).
//
// Topology is consumed in CSR form: a dynet.CSRDynamic's own snapshots (no
// map-based graph is ever materialized — the million-node path), or the CSR
// that graph.(*Graph).CSR builds once per state of a map graph, whether
// Net.Snapshot or an adaptive adversary returned it. A round whose CSR
// pointer repeats the previous round's reuses that round's validated and
// checked topology.
// RunSharded is RunShardedCtx over context.Background().
func RunSharded(cfg *Config) (int, error) {
	return RunShardedCtx(context.Background(), cfg)
}

// ShardedEngine binds ctx to RunShardedCtx.
func ShardedEngine(ctx context.Context) Engine {
	return func(cfg *Config) (int, error) { return RunShardedCtx(ctx, cfg) }
}

// RunShardedCtx is RunSharded under a context, with the cancellation,
// deadline and panic semantics of RunSequentialCtx.
func RunShardedCtx(ctx context.Context, cfg *Config) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	nw := cfg.Shards
	if nw == 0 {
		nw = goruntime.GOMAXPROCS(0)
	}
	return runShards(ctx, cfg, nw)
}

// shardBounds returns the node range [lo, hi) owned by shard s of nw over n
// nodes: sizes differ by at most one, earlier shards take the remainder.
// The usual s*n/nw formula overflows int when n approaches MaxInt; this
// form multiplies s (≤ nw) by base (≤ n/nw), which cannot overflow.
func shardBounds(n, nw, s int) (lo, hi int) {
	base, rem := n/nw, n%nw
	lo = s*base + min(s, rem)
	hi = lo + base
	if s < rem {
		hi++
	}
	return lo, hi
}

// shardState is one shard's partition and its inbox scratch.
type shardState struct {
	lo, hi  int
	node    int          // node currently executing protocol code, for panic attribution
	entries []inboxEntry // the inbox being sorted, reused for every receiver
}

// inboxEntry pairs a broadcast with its ordering key for sorting.
type inboxEntry struct {
	key uint64
	msg Message
}

func byKey(a, b inboxEntry) int { return cmp.Compare(a.key, b.key) }

// The two phases of a round, sent to the workers over their start channels.
const (
	phaseSend    = 1 // degree oracle, Send, ordering keys
	phaseDeliver = 2 // build and sort own receivers' inboxes, run Receive
)

// runShards runs a validated cfg on nw shards.
func runShards(ctx context.Context, cfg *Config, nw int) (int, error) {
	key := cfg.key()
	m := newEngineMetrics()
	n := cfg.Net.N()
	if n == 0 || cfg.MaxRounds == 0 {
		return 0, nil
	}
	nw = min(nw, n)
	m.shards.Set(int64(nw))

	var (
		// Struct-of-arrays node state, reused every round.
		outbox = make([]Message, n)
		keys   = make([]uint64, n)
		flat   []Message // delivery arena, one range per receiver

		da    = make([]DegreeAware, n)
		anyDA bool

		shards = make([]shardState, nw)

		// Topology state. csr is the round's checked snapshot; bfs is the
		// scratch of the Config.IntervalConnected check.
		csr *graph.CSR
		bfs graph.BFSScratch

		// The round in progress and its deadline timer's channel (nil
		// without Config.RoundDeadline).
		round     int
		deadlineC <-chan time.Time
	)
	for v := 0; v < n; v++ {
		if d, ok := cfg.Procs[v].(DegreeAware); ok {
			da[v] = d
			anyDA = true
		}
	}
	for s := range shards {
		shards[s].lo, shards[s].hi = shardBounds(n, nw, s)
	}
	csrDyn, _ := cfg.Net.(dynet.CSRDynamic)

	// fetch returns round r's topology, or nil for a nil graph: the
	// adaptive adversary's graph, chosen from the round's outbox, or else
	// the network's own CSR or its map graph's.
	fetch := func(r int) *graph.CSR {
		var g *graph.Graph
		switch {
		case cfg.Adaptive != nil:
			g = cfg.Adaptive(r, outbox)
		case csrDyn != nil:
			return csrDyn.SnapshotCSR(r)
		default:
			g = cfg.Net.Snapshot(r)
		}
		if g == nil {
			return nil
		}
		return g.CSR()
	}

	// topology fetches and checks round r's CSR. A pointer that repeats the
	// previous round's was checked then: a dynet.CSRDynamic repeats one
	// only for an unchanged topology, a mutated graph has dropped its CSR,
	// and csr holds the previous one, so its address is not reused.
	topology := func(r int) error {
		c := fetch(r)
		if c == nil {
			return fmt.Errorf("runtime: nil snapshot at round %d", r)
		}
		if c == csr {
			return nil
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("runtime: invalid snapshot at round %d: %w", r, err)
		}
		if c.N() != n {
			return fmt.Errorf("runtime: snapshot at round %d has %d nodes, want %d", r, c.N(), n)
		}
		if cfg.IntervalConnected && !c.Connected(&bfs) {
			return &dynet.ConnectivityError{Round: r}
		}
		csr = c
		return nil
	}

	// runPhase runs phase ph of the current round over shard sh. A process
	// panic ends the phase and comes back attributed to its node.
	runPhase := func(sh *shardState, ph int) (pe *ProcessPanicError) {
		defer func() {
			if rec := recover(); rec != nil {
				pe = &ProcessPanicError{Node: sh.node, Round: round, Value: rec, Stack: debug.Stack()}
			}
		}()
		r := round
		switch ph {
		case phaseSend:
			if anyDA && cfg.Adaptive == nil {
				// Degree oracle (Discussion model): every degree is known
				// before any Send.
				for v := sh.lo; v < sh.hi; v++ {
					if d := da[v]; d != nil {
						sh.node = v
						d.SetDegree(r, csr.Degree(graph.NodeID(v)))
					}
				}
			}
			for v := sh.lo; v < sh.hi; v++ {
				sh.node = v
				outbox[v] = cfg.Procs[v].Send(r)
				keys[v] = key(outbox[v])
			}
		case phaseDeliver:
			off := csr.Offsets
			for v := sh.lo; v < sh.hi; v++ {
				row := csr.Nbrs[off[v]:off[v+1]]
				es := slices.Grow(sh.entries[:0], len(row))
				for _, u := range row {
					es = append(es, inboxEntry{key: keys[u], msg: outbox[u]})
				}
				// Senders arrive in ascending id order, so a stable sort
				// breaks key ties by sender id, and an inbox already in key
				// order needs none. An inbox of two — every node of a cycle
				// or path — orders with one comparison.
				if len(es) == 2 {
					if es[1].key < es[0].key {
						es[0], es[1] = es[1], es[0]
					}
				} else if len(es) > 2 && !slices.IsSortedFunc(es, byKey) {
					slices.SortStableFunc(es, byKey)
				}
				in := flat[off[v]:off[v+1]:off[v+1]]
				for i := range es {
					in[i] = es[i].msg
				}
				sh.entries = es
				sh.node = v
				cfg.Procs[v].Receive(r, in)
			}
		}
		return nil
	}

	// phase runs ph on every shard and returns once all are done. A single
	// shard runs on the calling goroutine; more shards replace phase with a
	// hand-off to their workers below.
	phase := func(ph int) error {
		if pe := runPhase(&shards[0], ph); pe != nil {
			return pe
		}
		return nil
	}
	if nw > 1 {
		var (
			start = make([]chan int, nw)
			done  = make(chan *ProcessPanicError, nw)
			wg    sync.WaitGroup
		)
		wg.Add(nw)
		for s := range start {
			start[s] = make(chan int, 1)
			go func(sh *shardState, phases <-chan int) {
				defer wg.Done()
				for ph := range phases {
					done <- runPhase(sh, ph)
				}
			}(&shards[s], start[s])
		}
		defer func() {
			for s := range start {
				close(start[s])
			}
			wg.Wait()
		}()
		// The coordinator collects exactly one result per worker, so
		// phases never bleed into each other; of several panics it reports
		// the lowest node's, as the one-shard run would. A context or
		// deadline abort stops waiting early; the deferred join waits for
		// the workers still in the phase.
		phase = func(ph int) error {
			for s := range start {
				start[s] <- ph
			}
			var first *ProcessPanicError
			for range nw {
				select {
				case pe := <-done:
					if pe != nil && (first == nil || pe.Node < first.Node) {
						first = pe
					}
				case <-ctx.Done():
					return canceled(round, ctx.Err())
				case <-deadlineC:
					return &RoundDeadlineError{Round: round, Limit: cfg.RoundDeadline}
				}
			}
			if first != nil {
				return first
			}
			return nil
		}
	}

	// step runs round r.
	step := func(r int) error {
		if err := ctx.Err(); err != nil {
			return canceled(r, err)
		}
		round = r
		deadlineC = nil
		if cfg.RoundDeadline > 0 {
			t := time.NewTimer(cfg.RoundDeadline)
			defer t.Stop()
			deadlineC = t.C
		}
		if cfg.Adaptive == nil {
			if err := topology(r); err != nil {
				return err
			}
		}
		if err := phase(phaseSend); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return canceled(r, err)
		}
		if cfg.Adaptive != nil {
			// The omniscient adversary fixes the topology knowing the
			// round's broadcasts.
			if err := topology(r); err != nil {
				return err
			}
		}
		total := csr.Total()
		if cap(flat) < total {
			flat = make([]Message, total)
		} else {
			flat = flat[:total]
		}
		m.messages.Add(int64(total))
		if err := phase(phaseDeliver); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return canceled(r, err)
		}
		select {
		case <-deadlineC:
			// The deadline elapsed while the phases still completed: the
			// round overran its budget all the same.
			return &RoundDeadlineError{Round: r, Limit: cfg.RoundDeadline}
		default:
			return nil
		}
	}

	for r := 0; r < cfg.MaxRounds; r++ {
		obsStart := m.roundNS.Start()
		if err := step(r); err != nil {
			m.recordFailure(err)
			return r, err
		}
		m.rounds.Inc()
		m.roundNS.Stop(obsStart)
		if cfg.OnRound != nil {
			cfg.OnRound(r)
		}
		if cfg.Stop != nil && cfg.Stop(r) {
			return r + 1, nil
		}
	}
	return cfg.MaxRounds, nil
}
