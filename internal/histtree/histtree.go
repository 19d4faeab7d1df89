// Package histtree implements the history-tree data structure of Di Luna
// and Viglietta ("Computing in Anonymous Dynamic Networks Is Linear",
// arXiv:2204.02128) and, on top of it, an exact counting protocol for
// anonymous 1-interval-connected dynamic networks that terminates in O(n)
// rounds — the algorithm that closed the problem the source paper's
// Ω(log n) anonymity lower bound opened.
//
// A history tree is a per-execution structure whose level-t nodes are the
// anonymity classes after t completed rounds: the sets of processes whose
// views of the execution are identical. Level 0 partitions processes by
// input (leader / non-leader); the class of a process after round t+1 is
// determined by its class after round t together with the multiset of
// classes it heard from in round t+1. Two edge kinds connect consecutive
// levels:
//
//   - black edges (the tree edges, Node parent links) connect a class to
//     the classes that refine it one round later;
//   - red edges (RedEdge) connect a level-(t+1) class B' to every level-t
//     class A whose members were heard by B' members in round t+1, with
//     multiplicity = how many such messages each B' member received.
//
// Because the level-(t+1) partition always refines the level-t partition,
// the number of classes per level is non-decreasing and bounded by n, so
// at most n-1 levels can split a class: some pair of consecutive levels
// with identical partitions (a "stable pair") exists within the first n
// levels, and at a stable pair the red-edge multiplicities determine every
// class cardinality exactly (see count.go).
//
// Tree is a shared intern table: every distinct class is stored once and
// identified by a dense int32 id. A process's view — the paper's history
// tree as that process knows it — is exactly the set of classes reachable
// from its current class along black (parent) and red edges, so the
// paper's per-round "chunk merge" needs no data of its own: a process
// broadcasts just its class id, and the leader, the only process that reads
// a view, indexes its newly visible classes by walking down from its new
// class (see count.go). The tree is its own intern index: a class links its
// first child and each child its next sibling, so interning a class looks
// it up among its parent's children. Classes and red edges live in chunks
// that are allocated once and never move, which lets the leader read them
// without holding the tree's lock. The table is safe for concurrent use so
// the same Count run executes unchanged on the sequential and sharded
// engines; the structural Hash is id-free, so canonical message ordering
// does not depend on the engine's interning order.
package histtree

import (
	"math/bits"
	"slices"
	"sync"
)

// RedEdge records that members of the class owning the edge received Mult
// messages from members of class Class (one level below) in the round that
// created the owning class.
type RedEdge struct {
	// Class is the intern id of the observed class.
	Class int32
	// Mult is the per-member message multiplicity.
	Mult int32
}

// node is one interned history-tree node: an anonymity class. Its red
// edges are arena[redChunk][redOff:redOff+redLen]. The node is
// pointer-free, so the chunks that hold nodes are invisible to the garbage
// collector. Every field but child is written once, when the node is
// interned; child changes whenever the class gains a child, so code that
// reads nodes without the tree's lock never reads child.
type node struct {
	hash     uint64 // id-free structural fingerprint
	level    int32
	parent   int32 // black edge to the refined class; -1 at level 0
	child    int32 // first child; -1 if none
	next     int32 // next child of the same parent; -1 if none
	redChunk int32
	redOff   int32
	redLen   int32
}

const (
	// nodeChunk is the number of nodes in a chunk; a power of two, so an id
	// splits into chunk and slot by a shift and a mask.
	nodeChunk = 1 << nodeShift
	nodeShift = 10
	// arenaChunk is the least number of red edges in an arena chunk. A
	// longer multiset gets a chunk of its own length.
	arenaChunk = 4096
)

// store is the tree's storage: a directory of node chunks and one of red
// edge chunks. Each chunk is allocated once at full length, entered once in
// its directory and never moved, and a multiset never straddles two arena
// chunks. A copy of the two directory headers therefore addresses every
// node interned before the copy was taken, for as long as the tree lives.
type store struct {
	nodes []*[nodeChunk]node
	arena [][]RedEdge
}

// node returns the node of class id, which must be in the directory.
func (s *store) node(id int32) *node {
	return &s.nodes[id>>nodeShift][id&(nodeChunk-1)]
}

// red returns node n's red edges as a capacity-clamped view of the arena.
func (s *store) red(n *node) []RedEdge {
	if n.redLen == 0 {
		return nil
	}
	end := n.redOff + n.redLen
	return s.arena[n.redChunk][n.redOff:end:end]
}

// Tree is the shared intern table of history-tree nodes for one execution.
// Ids are dense and assigned in interning order, which may differ between
// engines; anything observable across engines must go through the
// structural Hash or through id-free comparisons.
//
// The tree is its own intern index. Extend looks a class up among its
// parent's children, comparing red multisets. A class has at most as many
// children as members, so in a synchronous round the lookups of n
// processes cost at most n + n·(the classes new that round) comparisons,
// and a whole run O(n·rounds + n²): the size of the tree itself. The hit
// path — the one every process takes every round once its class exists —
// allocates nothing, and a miss allocates only when it opens a chunk or
// its scratch passes its high-water mark.
type Tree struct {
	mu sync.RWMutex
	store
	count int32 // interned classes
	used  int   // red edges in the last arena chunk
	// roots holds the non-leader and the leader level-0 class, indexed by
	// the input bit; -1 until interned.
	roots [2]int32
	hsBuf []hashMult // write-lock scratch for the miss-path structural sort
}

// hashMult pairs a child-class structural hash with its multiplicity for
// the id-free ordering inside the structural hash computation.
type hashMult struct {
	h uint64
	m int32
}

// New returns an empty tree. Its first node chunk and arena chunk are
// allocated with its first node and first red edge.
func New() *Tree {
	return &Tree{roots: [2]int32{-1, -1}}
}

// hashSeed seeds the structural hash chain (the FNV-1a offset basis, kept
// for its provenance as a well-spread constant).
const hashSeed = 14695981039346656037

// mixFold folds v into h with one multiply and a rotate. It backs the
// id-free structural hash, where a collision merely perturbs canonical
// message ordering, which the protocol tolerates: a receiver reduces its
// inbox to a class multiset.
func mixFold(h, v uint64) uint64 {
	h ^= v
	h *= 0x9E3779B97F4A7C15 // 2^64 / golden ratio
	return bits.RotateLeft64(h, 29)
}

// Root interns (or finds) the level-0 class for the given input bit and
// returns its id. Every execution has exactly two possible roots: the
// leader's singleton class and the shared non-leader class.
func (t *Tree) Root(leader bool) int32 {
	bit := 0
	if leader {
		bit = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id := t.roots[bit]; id >= 0 {
		return id
	}
	// The structural hash folds the input bit as 1 for the leader and 2
	// for the rest.
	sh := mixFold(mixFold(hashSeed, 0), uint64(2-bit))
	id := t.insert(node{hash: sh, parent: -1, next: -1})
	t.roots[bit] = id
	return id
}

// findExtend looks the child of parent with red multiset red up among the
// parent's children, under whichever lock the caller holds.
func (t *Tree) findExtend(parent int32, red []RedEdge) (int32, bool) {
	for id := t.node(parent).child; id >= 0; {
		n := t.node(id)
		if slices.Equal(t.red(n), red) {
			return id, true
		}
		id = n.next
	}
	return 0, false
}

// Extend interns (or finds) the child class of parent whose members heard
// the multiset described by heard, and returns its id. heard must reference
// classes at the parent's level with distinct Class entries; it is copied,
// so the caller may reuse its slice. A process calls Extend once per round
// with the multiset of classes observed in its inbox.
//
// The hit path — the class already exists, which is every call but the
// first per distinct class — takes a read lock and allocates nothing when
// heard is already sorted by Class (the protocol's absorb always sorts).
func (t *Tree) Extend(parent int32, heard []RedEdge) int32 {
	id, _ := t.ExtendHash(parent, heard)
	return id
}

// ExtendHash is Extend plus the child's structural hash, resolved under a
// single lock acquisition. The counting protocol needs both every round
// for every process, so fusing the lookups halves the lock traffic of the
// hot path.
func (t *Tree) ExtendHash(parent int32, heard []RedEdge) (int32, uint64) {
	red := heard
	if !slices.IsSortedFunc(red, cmpRedEdge) {
		red = slices.Clone(heard)
		slices.SortFunc(red, cmpRedEdge)
	}

	t.mu.RLock()
	if id, ok := t.findExtend(parent, red); ok {
		sh := t.node(id).hash
		t.mu.RUnlock()
		return id, sh
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.findExtend(parent, red); ok {
		// Raced with another intern of the same class between the locks.
		return id, t.node(id).hash
	}
	p := t.node(parent)
	// Structural hash: chain the parent's hash with the multiset of
	// (child-class hash, multiplicity) pairs sorted by hash — id-free, so
	// equal classes hash equally regardless of interning order. hsBuf is
	// write-lock-protected scratch, so the miss path allocates only on its
	// high-water mark.
	hs := t.hsBuf[:0]
	for _, e := range red {
		hs = append(hs, hashMult{h: t.node(e.Class).hash, m: e.Mult})
	}
	t.hsBuf = hs
	slices.SortFunc(hs, func(a, b hashMult) int {
		if a.h != b.h {
			if a.h < b.h {
				return -1
			}
			return 1
		}
		return int(a.m) - int(b.m)
	})
	sh := mixFold(hashSeed, uint64(p.level)+1)
	sh = mixFold(sh, p.hash)
	for _, e := range hs {
		sh = mixFold(sh, e.h)
		sh = mixFold(sh, uint64(e.m))
	}
	chunk, off := t.keep(red)
	id := t.insert(node{hash: sh, level: p.level + 1, parent: parent, next: p.child,
		redChunk: chunk, redOff: off, redLen: int32(len(red))})
	p.child = id
	return id, sh
}

func cmpRedEdge(a, b RedEdge) int { return int(a.Class) - int(b.Class) }

// keep copies red into the arena under the write lock and returns its
// chunk and offset. A multiset that does not fit in the last chunk opens
// a new one, at least arenaChunk long.
func (t *Tree) keep(red []RedEdge) (chunk, off int32) {
	if len(red) == 0 {
		return 0, 0
	}
	last := len(t.arena) - 1
	if last < 0 || t.used+len(red) > len(t.arena[last]) {
		t.arena = append(t.arena, make([]RedEdge, max(arenaChunk, len(red))))
		last++
		t.used = 0
	}
	copy(t.arena[last][t.used:], red)
	off = int32(t.used)
	t.used += len(red)
	return int32(last), off
}

// insert stores n under the write lock as the next class and returns its
// id, opening a node chunk when the last one is full.
func (t *Tree) insert(n node) int32 {
	id := t.count
	if id&(nodeChunk-1) == 0 {
		t.nodes = append(t.nodes, new([nodeChunk]node))
	}
	n.child = -1
	*t.node(id) = n
	t.count++
	return id
}

// Len returns the number of interned classes.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.count)
}

// Info returns the structural fields of a class: its level, its black-edge
// parent (-1 at level 0), and its red edges sorted by Class. The returned
// slice is owned by the tree and must not be modified; it stays valid (and
// immutable) across later interning.
func (t *Tree) Info(id int32) (level int, parent int32, red []RedEdge) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.node(id)
	return int(n.level), n.parent, t.red(n)
}

// Hash returns the id-free structural fingerprint of a class: equal across
// engines and interning orders for structurally equal classes.
func (t *Tree) Hash(id int32) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.node(id).hash
}
