// Package runtime executes synchronous round-based message-passing
// computations over dynamic networks, implementing the paper's Section 3
// model: every round has a send phase, in which each process broadcasts one
// message to its current neighbors through an anonymous broadcast with
// unlimited bandwidth, and a receive phase, in which it processes the
// multiset of messages delivered by its neighbors.
//
// One round loop implements the model. It splits the node range into
// contiguous shards: a single shard runs on the calling goroutine, more run
// on a fixed pool of worker goroutines, one per shard. Node state lives in
// flat engine-owned buffers, which is what scales to million-node networks.
// RunSequential runs one shard; RunSharded runs Config.Shards of them.
// Executions are identical for every shard count.
//
// Anonymity is enforced structurally: a process is given only the multiset
// of messages it received, never the identity of a sender. Each inbox is
// delivered in one canonical order, ascending by a content key of each
// message (Config.CanonKey, ties broken by sender id), which makes runs
// deterministic; a protocol's receivers must not depend on that order.
//
// Runs are cancellation-aware: RunSequentialCtx and RunShardedCtx honor a
// context.Context at round granularity (checked at the top of each round
// and between the send and receive phases), honor an optional per-round
// wall-clock budget (Config.RoundDeadline), and convert process panics into
// a typed *ProcessPanicError instead of crashing the caller. RunSequential
// and RunSharded are thin wrappers over context.Background().
package runtime

import (
	"context"
	"errors"
	"fmt"
	"time"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// Message is an opaque broadcast payload. The model's bandwidth is
// unlimited, so messages may be arbitrarily large values.
//
// Lifetime rule: a message is valid until its sender's next Send. A sender
// may return a pointer to a message it owns and reuses, as long as it
// writes that message only in Send: the engines finish every Receive of
// round r before any Send of round r+1, so every receiver reads what was
// sent in its round. Anything that keeps a message longer, such as a
// recorder or a test replaying inboxes later, copies it.
type Message any

// Process is one node's protocol logic. The engine calls Send in the send
// phase of every round and Receive in the receive phase with the multiset
// of messages broadcast by the node's current neighbors. Per the model, a
// process does not learn its degree |N(v,r)| until the receive phase —
// unless it opts in to the degree-oracle extension (see DegreeAware).
//
// Implementations must be deterministic: the lower bound assumes the
// adversary controls any randomness.
type Process interface {
	// Send returns the message to broadcast at round r.
	Send(r int) Message
	// Receive delivers the canonical-order multiset of neighbor messages
	// for round r.
	//
	// Ownership rule: msgs aliases an engine-owned buffer that is reused
	// for the next round, so it is valid only for the duration of the
	// call, and each message in it is valid until its sender's next Send
	// (see Message). A process that keeps messages across rounds copies
	// the slice and every message it keeps. Neither the engine nor a
	// receiver writes a message.
	Receive(r int, msgs []Message)
}

// DegreeAware is the optional degree-oracle extension from the paper's
// Discussion (the model of [13]): a process implementing it is told its
// degree for round r before its Send(r) is requested. This single bit of
// extra knowledge collapses the counting lower bound to O(1) in restricted
// G(PD)_2 networks.
type DegreeAware interface {
	SetDegree(r, degree int)
}

// Outputter is implemented by processes (typically the leader) that
// eventually produce a terminal output, such as the network count.
type Outputter interface {
	// Output returns the process's output value and whether the process
	// has terminated with that output.
	Output() (int, bool)
}

// Canonicalizer converts a message to its text form: the encoding trace
// recorders write, and, when a Config sets no CanonKey, the source of the
// engines' ordering key.
type Canonicalizer func(Message) string

// KeyCanonicalizer converts a message to the engines' ordering key. A key
// must depend only on what the message says, never on who sent it;
// messages that share a key form one ordering class, delivered by sender
// id.
type KeyCanonicalizer func(Message) uint64

// DefaultCanon formats the message with %#v.
func DefaultCanon(m Message) string { return fmt.Sprintf("%#v", m) }

// StringKey is FNV-1a over the bytes of s: the ordering key of a message's
// text form, and the hash protocols apply to the strings inside their
// messages.
func StringKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// MixKey is the SplitMix64 finalizer, a bijective avalanche mixer. A
// protocol folds the fields of a message into one key with it.
func MixKey(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Config describes an execution: a dynamic network, one process per node,
// and the run controls.
type Config struct {
	// Net supplies the per-round topology (and the node count).
	Net dynet.Dynamic
	// Adaptive, if non-nil, overrides Net's snapshots: at each round the
	// adversary chooses the topology after inspecting the round's
	// broadcasts — the paper's omniscient worst-case adversary, which
	// "has access to nodes' local variables" (for deterministic
	// protocols, the broadcasts determine the states, and broadcasts are
	// composed before the topology is known). The returned graph must
	// have Net.N() nodes; a nil or wrong-size graph ends the run with an
	// error naming the round. The engine reads the graph's own CSR, which
	// AddEdge and RemoveEdge drop, so the adversary may return one graph
	// every round and edit it in place between them. Adaptive cannot be
	// combined with DegreeAware processes: the degree oracle needs the
	// topology before the send phase, which an adaptive adversary fixes
	// only after it.
	Adaptive func(r int, outbox []Message) *graph.Graph
	// Procs holds one Process per node; Procs[i] runs at node i.
	Procs []Process
	// Canon is the text form of a message, which trace recorders write.
	// Nil means DefaultCanon.
	Canon Canonicalizer
	// CanonKey is the delivery order: each inbox lists its messages by
	// ascending key, ties broken by sender id. Nil means StringKey of the
	// Canon text. Protocol packages set it to a
	// content hash of their own message types, which formats no string.
	CanonKey KeyCanonicalizer
	// MaxRounds bounds the execution length.
	MaxRounds int
	// IntervalConnected enforces 1-interval connectivity on the rounds the
	// run executes. Each round's topology is checked once it is fetched:
	// before any process sends, or, for an adaptive adversary, before any
	// process receives. A snapshot whose pointer repeats the previous
	// round's was checked then. A disconnected round ends the run with a
	// *dynet.ConnectivityError naming it. Rounds after the run stops are
	// never built, so they are never checked.
	IntervalConnected bool
	// RoundDeadline, if positive, bounds the wall-clock duration of each
	// round. A round that overruns it aborts the run with a
	// *RoundDeadlineError; the paper's model is synchronous, so a round
	// that cannot complete is an execution fault, not a slow message.
	// Zero means no per-round deadline.
	RoundDeadline time.Duration
	// Shards is the shard count of RunSharded: the node range is split
	// into Shards contiguous partitions. One shard runs on the calling
	// goroutine; more run on one persistent worker goroutine each. Zero
	// means GOMAXPROCS. RunSequential always runs one shard. Executions are
	// identical for every shard count.
	Shards int
	// Stop, if non-nil, is evaluated after each round's receive phase;
	// returning true ends the run after that round.
	Stop func(completedRound int) bool
	// OnRound, if non-nil, is invoked after each round completes, for
	// tracing.
	OnRound func(completedRound int)
}

func (c *Config) validate() error {
	if c.Net == nil {
		return errors.New("runtime: nil network")
	}
	if len(c.Procs) != c.Net.N() {
		return fmt.Errorf("runtime: %d processes for %d nodes", len(c.Procs), c.Net.N())
	}
	for i, p := range c.Procs {
		if p == nil {
			return fmt.Errorf("runtime: nil process at node %d", i)
		}
		if c.Adaptive != nil {
			if _, ok := p.(DegreeAware); ok {
				return fmt.Errorf("runtime: process at node %d is DegreeAware, incompatible with an adaptive adversary", i)
			}
		}
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("runtime: negative MaxRounds %d", c.MaxRounds)
	}
	if c.Shards < 0 {
		return fmt.Errorf("runtime: negative Shards %d", c.Shards)
	}
	return nil
}

// key resolves the run's ordering key: CanonKey, or else StringKey of the
// message's text form.
func (c *Config) key() KeyCanonicalizer {
	if c.CanonKey != nil {
		return c.CanonKey
	}
	canon := c.Canon
	if canon == nil {
		canon = DefaultCanon
	}
	return func(m Message) uint64 { return StringKey(canon(m)) }
}

// Engine runs a Config and returns the completed-round count: RunSequential,
// RunSharded, or either one bound to a context by SequentialEngine or
// ShardedEngine. Protocol helpers take one, so the caller picks the shard
// count and the context.
type Engine = func(*Config) (int, error)

// SequentialEngine binds ctx to RunSequentialCtx, the one-shard run on the
// calling goroutine. It lets engine-agnostic code (counting, dissemination,
// chainnet) run under a cancellable context without changing its own
// signatures.
func SequentialEngine(ctx context.Context) Engine {
	return func(cfg *Config) (int, error) { return RunSequentialCtx(ctx, cfg) }
}
