package runtime

import (
	"cmp"
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// RunSharded executes the configured computation on a fixed pool of
// Config.Shards worker goroutines (GOMAXPROCS when zero), each iterating a
// contiguous partition of the node range. It implements the same semantics
// as RunSequential — same round counts, same delivery order, same errors —
// but with per-node state in flat struct-of-arrays buffers and message
// delivery assembled by index ranges into one engine-owned arena instead of
// per-node slices, which is what keeps a 10⁶-node round loop allocation-free
// in steady state.
//
// Delivery order is the sequential engine's exactly: each inbox lists
// senders sorted by (ordering key, node id). The engine computes one global
// canonical order of the round's senders and has each shard replay it
// against its own receivers, so no per-inbox sort happens at all: the only
// sort is the per-round sort of the distinct keys.
//
// Topology is consumed in CSR form. Networks implementing dynet.CSRDynamic
// are queried natively (no map-based graphs are ever materialized — the
// million-node path); any other Dynamic or an adaptive adversary is
// converted per snapshot with graph.(*Graph).CSR, cached while the snapshot
// pointer is unchanged. RunSharded is RunShardedCtx over
// context.Background().
func RunSharded(cfg *Config) (int, error) {
	return RunShardedCtx(context.Background(), cfg)
}

// ShardedEngine binds ctx to the sharded worker-pool engine.
func ShardedEngine(ctx context.Context) Engine {
	return func(cfg *Config) (int, error) { return RunShardedCtx(ctx, cfg) }
}

// shardedMaxNodes bounds the node count of the sharded engine: node indices
// are packed into int32 arrays (order, per-shard key indices), which halves
// the struct-of-arrays footprint at the scales the engine exists for.
const shardedMaxNodes = math.MaxInt32

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

// shardState is one worker's partition plus its send-phase key census: the
// distinct ordering keys seen among its own senders, in first-seen order
// (deterministic: nodes are iterated ascending), with per-key counts. The
// coordinator merges the censuses into the global canonical ranking and
// hands back, per local key, the placement cursor into the global order
// array.
type shardState struct {
	lo, hi int
	node   int // node currently executing protocol code, for panic attribution

	localMap  map[uint64]int32 // ordering key -> local census index
	localKeys []uint64         // census index -> key, first-seen order
	localCnt  []int32          // census index -> own senders with that key
	toGlobal  []int32          // census index -> coordinator's distinct-key index
	placePos  []int32          // census index -> next free slot in the order array
}

// distinctKey is one distinct ordering key of a round with its
// coordinator index, which stays valid when the keys are sorted.
type distinctKey struct {
	key uint64
	gi  int32
}

// phase identifiers sent over the start channels.
const (
	phaseSend    = 1 // degree oracle, Send, ordering keys, key census
	phasePlace   = 2 // scatter own senders into the global canonical order
	phaseDeliver = 3 // fill own receivers' arena ranges, run Receive
)

// RunShardedCtx is RunSharded under a context, with the cancellation,
// deadline and panic semantics of RunSequentialCtx.
func RunShardedCtx(ctx context.Context, cfg *Config) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	key := cfg.key()
	m := cfg.metrics()
	n := cfg.Net.N()
	if n == 0 || cfg.MaxRounds == 0 {
		return 0, nil
	}
	if n > shardedMaxNodes {
		return 0, fmt.Errorf("runtime: sharded engine supports at most %d nodes, got %d", shardedMaxNodes, n)
	}
	nw := cfg.Shards
	if nw == 0 {
		nw = goruntime.GOMAXPROCS(0)
	}
	if nw > n {
		nw = n
	}
	m.shards.Set(int64(nw))

	var (
		// Struct-of-arrays node state, reused every round.
		outbox = make([]Message, n)
		keys   = make([]uint64, n)
		kidx   = make([]int32, n) // per node: census index within its shard
		order  = make([]int32, n) // senders in canonical (key, id) order
		cur    = make([]int, n)   // per node: next write offset into flat
		flat   []Message          // delivery arena, one range per receiver

		da    = make([]DegreeAware, n)
		anyDA bool

		shards = make([]shardState, nw)

		// Coordinator distinct-key scratch, reused every round.
		gIdx   = make(map[uint64]int32)
		dKeys  []distinctKey
		dTotal []int32 // per coordinator index: senders with that key
		acc    []int32

		// Topology state. csr is the round's snapshot; the conversion
		// cache holds while the map-graph pointer is unchanged. bfs is the
		// scratch of the Config.IntervalConnected check.
		csr    *graph.CSR
		csrBuf *graph.CSR
		lastG  *graph.Graph
		bfs    graph.BFSScratch
		round  int
	)
	for v := 0; v < n; v++ {
		if d, ok := cfg.Procs[v].(DegreeAware); ok {
			da[v] = d
			anyDA = true
		}
	}
	for s := range shards {
		lo, hi := shardBounds(n, nw, s)
		shards[s] = shardState{lo: lo, hi: hi, localMap: make(map[uint64]int32)}
	}
	csrDyn, _ := cfg.Net.(dynet.CSRDynamic)
	if cfg.Adaptive != nil {
		csrDyn = nil // adaptive snapshots arrive as map graphs
	}

	// snapshotCSR resolves round r's topology in CSR form. g is the
	// adaptive adversary's graph (nil otherwise). A map graph reused from
	// the previous round keeps its converted, already checked CSR.
	snapshotCSR := func(r int, g *graph.Graph) error {
		if csrDyn != nil {
			c := csrDyn.SnapshotCSR(r)
			if c == nil {
				return fmt.Errorf("runtime: nil CSR snapshot at round %d", r)
			}
			if err := c.Validate(); err != nil {
				return fmt.Errorf("runtime: invalid CSR snapshot at round %d: %w", r, err)
			}
			if c.N() != n {
				return fmt.Errorf("runtime: CSR snapshot at round %d has %d nodes, want %d", r, c.N(), n)
			}
			csr = c
		} else {
			if g == nil {
				var err error
				if g, err = cfg.topology(r, nil); err != nil {
					return err
				}
			}
			if g == lastG && csr != nil {
				return nil
			}
			c, err := g.CSR(csrBuf)
			if err != nil {
				return fmt.Errorf("runtime: snapshot at round %d: %w", r, err)
			}
			csr, csrBuf, lastG = c, c, g
		}
		if cfg.IntervalConnected && !csr.Connected(&bfs) {
			return &dynet.ConnectivityError{Round: r}
		}
		return nil
	}

	var (
		start     = make([]chan int, nw)
		phaseDone = make(chan struct{}, nw)
		panics    = make(chan *ProcessPanicError, nw)
		workerWG  sync.WaitGroup
	)
	for s := range start {
		start[s] = make(chan int, 1)
	}

	runPhase := func(sh *shardState, ph int) {
		r := round
		switch ph {
		case phaseSend:
			if anyDA && cfg.Adaptive == nil {
				// Degree oracle (Discussion model), a separate pass before
				// any Send, as in the sequential engine.
				for v := sh.lo; v < sh.hi; v++ {
					if d := da[v]; d != nil {
						sh.node = v
						d.SetDegree(r, csr.Degree(graph.NodeID(v)))
					}
				}
			}
			clear(sh.localMap)
			sh.localKeys = sh.localKeys[:0]
			sh.localCnt = sh.localCnt[:0]
			for v := sh.lo; v < sh.hi; v++ {
				sh.node = v
				outbox[v] = cfg.Procs[v].Send(r)
				k := key(outbox[v])
				keys[v] = k
				li, ok := sh.localMap[k]
				if !ok {
					li = int32(len(sh.localKeys))
					sh.localMap[k] = li
					sh.localKeys = append(sh.localKeys, k)
					sh.localCnt = append(sh.localCnt, 0)
				}
				sh.localCnt[li]++
				kidx[v] = li
			}
		case phasePlace:
			for v := sh.lo; v < sh.hi; v++ {
				li := kidx[v]
				order[sh.placePos[li]] = int32(v)
				sh.placePos[li]++
			}
		case phaseDeliver:
			off := csr.Offsets
			for v := sh.lo; v < sh.hi; v++ {
				cur[v] = off[v]
			}
			// Replay the global canonical sender order against this
			// shard's receivers: each owned inbox range fills in exactly
			// the (key, id)-sorted order, with no per-inbox sort.
			for _, u := range order {
				row := csr.Nbrs[off[u]:off[u+1]]
				a := lowerBound(row, sh.lo)
				b := lowerBound(row, sh.hi)
				if a == b {
					continue
				}
				msg := outbox[u]
				for _, w := range row[a:b] {
					flat[cur[w]] = msg
					cur[w]++
				}
			}
			for v := sh.lo; v < sh.hi; v++ {
				sh.node = v
				cfg.Procs[v].Receive(r, flat[off[v]:off[v+1]:off[v+1]])
			}
		}
	}

	worker := func(s int) {
		defer workerWG.Done()
		sh := &shards[s]
		defer func() {
			if rec := recover(); rec != nil {
				// A panicking worker reports instead of its phase token; the
				// coordinator's barrier collects one signal per worker and
				// aborts the round.
				panics <- &ProcessPanicError{Node: sh.node, Round: round, Value: rec, Stack: debug.Stack()}
			}
		}()
		for ph := range start[s] {
			runPhase(sh, ph)
			phaseDone <- struct{}{}
		}
	}
	workerWG.Add(nw)
	for s := 0; s < nw; s++ {
		go worker(s)
	}
	stopWorkers := func() {
		for s := range start {
			close(start[s])
		}
		workerWG.Wait()
	}

	for r := 0; r < cfg.MaxRounds; r++ {
		if err := ctx.Err(); err != nil {
			m.cancels.Inc()
			stopWorkers()
			return r, canceled(r, err)
		}
		obsStart := m.roundNS.Start()
		var (
			roundTimer *time.Timer
			deadlineC  <-chan time.Time
		)
		if cfg.RoundDeadline > 0 {
			roundTimer = time.NewTimer(cfg.RoundDeadline)
			deadlineC = roundTimer.C
		}
		// barrier collects exactly one signal — a phase token or a panic
		// report — per worker, so phases never bleed into each other. A
		// panicking worker is dead, so after any panic the run must abort;
		// waiting for all signals first makes the choice deterministic: the
		// lowest panicking node wins, as in the sequential engine. Context
		// and deadline aborts stop waiting early; the in-flight workers
		// park on the buffered token channel and are joined by fail.
		barrier := func() error {
			var first *ProcessPanicError
			for i := 0; i < nw; i++ {
				select {
				case <-phaseDone:
				case p := <-panics:
					if first == nil || p.Node < first.Node {
						first = p
					}
				case <-ctx.Done():
					return canceled(r, ctx.Err())
				case <-deadlineC:
					return &RoundDeadlineError{Round: r, Limit: cfg.RoundDeadline}
				}
			}
			if first != nil {
				return first
			}
			return nil
		}
		fail := func(err error) (int, error) {
			if roundTimer != nil {
				roundTimer.Stop()
			}
			m.recordFailure(err)
			stopWorkers()
			return r, err
		}
		release := func(ph int) {
			for s := range start {
				start[s] <- ph
			}
		}

		round = r
		if cfg.Adaptive == nil {
			if err := snapshotCSR(r, nil); err != nil {
				if roundTimer != nil {
					roundTimer.Stop()
				}
				stopWorkers()
				return r, err
			}
		}
		release(phaseSend)
		if err := barrier(); err != nil {
			return fail(err)
		}
		if err := ctx.Err(); err != nil {
			return fail(canceled(r, err))
		}
		if cfg.Adaptive != nil {
			// The omniscient adversary fixes the topology knowing the
			// round's broadcasts.
			g, err := cfg.topology(r, outbox)
			if err != nil {
				return fail(err)
			}
			if err := snapshotCSR(r, g); err != nil {
				return fail(err)
			}
		}

		// Merge the shard key censuses into the global canonical ranking
		// and reserve, for every (distinct key, shard) pair, its slot range
		// in the order array. All cross-shard coordination happens here, on
		// integer indices.
		clear(gIdx)
		dKeys = dKeys[:0]
		dTotal = dTotal[:0]
		for s := range shards {
			sh := &shards[s]
			sh.toGlobal = sh.toGlobal[:0]
			for li, k := range sh.localKeys {
				gi, ok := gIdx[k]
				if !ok {
					gi = int32(len(dKeys))
					gIdx[k] = gi
					dKeys = append(dKeys, distinctKey{k, gi})
					dTotal = append(dTotal, 0)
				}
				dTotal[gi] += sh.localCnt[li]
				sh.toGlobal = append(sh.toGlobal, gi)
			}
		}
		// gIdx dedups the keys, so no two compare equal and an unstable
		// sort yields the one ascending order.
		slices.SortFunc(dKeys, func(a, b distinctKey) int { return cmp.Compare(a.key, b.key) })
		if cap(acc) < len(dKeys) {
			acc = make([]int32, len(dKeys))
		} else {
			acc = acc[:len(dKeys)]
		}
		// No zeroing: every distinct key appears in dKeys, so every entry
		// is assigned below before it is read.
		running := int32(0)
		for _, d := range dKeys {
			acc[d.gi] = running
			running += dTotal[d.gi]
		}
		for s := range shards {
			sh := &shards[s]
			sh.placePos = sh.placePos[:0]
			for li, gi := range sh.toGlobal {
				sh.placePos = append(sh.placePos, acc[gi])
				acc[gi] += sh.localCnt[li]
			}
		}
		release(phasePlace)
		if err := barrier(); err != nil {
			return fail(err)
		}

		total := csr.Total()
		if cap(flat) < total {
			flat = make([]Message, total)
		} else {
			flat = flat[:total]
		}
		if m.messages != nil {
			m.messages.Add(int64(total))
		}
		release(phaseDeliver)
		if err := barrier(); err != nil {
			return fail(err)
		}
		if err := ctx.Err(); err != nil {
			return fail(canceled(r, err))
		}
		if roundTimer != nil {
			if !roundTimer.Stop() {
				// The deadline elapsed while the barriers were already
				// satisfied: the round still overran its budget.
				return fail(&RoundDeadlineError{Round: r, Limit: cfg.RoundDeadline})
			}
		}
		m.rounds.Inc()
		m.roundNS.Stop(obsStart)
		if cfg.OnRound != nil {
			cfg.OnRound(r)
		}
		if cfg.Stop != nil && cfg.Stop(r) {
			stopWorkers()
			return r + 1, nil
		}
	}
	stopWorkers()
	return cfg.MaxRounds, nil
}

// lowerBound returns the first index in the ascending row whose node id is
// >= x. Hand-rolled instead of sort.Search so the delivery loop stays free
// of closure allocations.
func lowerBound(row []graph.NodeID, x int) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(row[mid]) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
