package histtree

// Delta-view broadcasting.
//
// A process's view only ever grows, so instead of snapshotting the whole
// bitset into every message (O(classes) words copied per edge per round),
// each process keeps one immutable snapshot — the base — shared by
// reference across rounds, plus the bits added since the base was taken —
// the delta. A message is (base, delta), and base ∪ delta is exactly the
// full view, so the encoding is semantically identical to the old full
// snapshot on any topology, including adversarial ones.
//
// The delta is a list of (word, mask) entries rather than individual class
// ids: intern ids are assigned densely ascending, so a round's additions
// cluster into a handful of words, and both the storage and the receiver's
// merge walk are per-word instead of per-id. Entries with the same word
// index may repeat; merging is an idempotent OR, so that is only a minor
// redundancy, never an error.
//
// Receivers remember which bases they have already merged (mergeCache) and
// how much of the accompanying delta they consumed, so a repeat sender
// costs O(new delta entries) instead of O(view words). The concurrency
// argument for sharing mutable sender state through a message:
//
//   - base is stable for the duration of its epoch: the sender writes it
//     only during a rebase, and alternates between two buffers, so the
//     buffer being overwritten was last published two epochs ago — every
//     message referencing it was consumed before the intervening epoch's
//     Sends began (the engines' phase barriers order all Receives of
//     round r before any Send of round r+1, and all Sends of a round
//     before its Receives).
//   - delta entries below the sender's published mark — the length at the
//     most recent Send — are frozen: addDelta only appends, or ORs into
//     the tail entry when its index is >= published. A receiver holds a
//     slice whose len was fixed at Send time, which equals published, so
//     the sender's later appends and in-place ORs touch only indices >=
//     that len (or a new backing array) and never overlap the receiver's
//     reads.
//   - a cache hit requires pointer identity on base AND an equal epoch.
//     A live cache entry retains the base slice, so the allocator cannot
//     hand its address to an unrelated allocation while the entry exists;
//     the same sender does revisit the address when its buffer
//     alternation comes back around, which is why the epoch — bumped on
//     every rebase — is part of the match. Entries never read the
//     retained contents, only compare the address.
//   - delta resets only at a rebase, which also bumps the epoch, so under
//     a matching (base, epoch) the cached consumed-prefix length is
//     always <= the message's delta length and the prefix entries are
//     frozen (append may move the backing array but copies the prefix
//     verbatim).

// wordMask is one delta entry: the bits of view word w added since the
// sender's base was snapshotted.
type wordMask struct {
	w    int32
	mask uint64
}

// viewDelta is the delta-encoded per-round broadcast: the sender's current
// class, its id-free structural hash (for engine-independent canonical
// ordering), and the view as base snapshot plus additions. Senders reuse
// one viewDelta value and return its address from Send; see the package
// comment above for why that is safe under the round barriers.
type viewDelta struct {
	cur   int32
	hash  uint64
	epoch int32      // rebase counter; qualifies base for cache matching
	base  []uint64   // snapshot of the view at the last rebase
	delta []wordMask // view bits added since base was taken
}

// rebaseThreshold is the delta entry count at which a sender folds the
// delta into a fresh base snapshot. Entries are two words each, so bounding
// them by O(view words) keeps a cold receiver's merge within a constant
// factor of the plain-snapshot cost, while warm receivers pay only the
// delta suffix. The absolute cap bounds per-process delta memory at large
// n — rebases reuse the two base buffers, so their only recurring cost is
// the occasional full re-merge at each warm receiver.
func rebaseThreshold(words int) int {
	t := 2 * words
	if t < 256 {
		return 256
	}
	if t > 8192 {
		return 8192
	}
	return t
}

// mergeCacheSize bounds the per-receiver skip cache. Entries are evicted
// in ring order; a miss is never wrong, just a full re-merge.
const mergeCacheSize = 8

// mergeRef records that a base snapshot has been fully merged into the
// owning view, along with how many entries of its accompanying delta were
// consumed. ptr duplicates &base[0] so the per-message cache scan is a
// pointer-and-epoch comparison per entry; base is retained to keep the
// snapshot's address from being handed to an unrelated allocation (see
// the ABA note above).
type mergeRef struct {
	ptr   *uint64
	epoch int32
	base  []uint64
	dlen  int
}

type mergeCache struct {
	refs [mergeCacheSize]mergeRef
	next int
}

func (c *mergeCache) find(base []uint64, epoch int32) *mergeRef {
	if len(base) == 0 {
		return nil
	}
	p := &base[0]
	for i := range c.refs {
		if c.refs[i].ptr == p && c.refs[i].epoch == epoch {
			return &c.refs[i]
		}
	}
	return nil
}

func (c *mergeCache) insert(base []uint64, epoch int32, dlen int) {
	if len(base) == 0 {
		return
	}
	c.refs[c.next] = mergeRef{ptr: &base[0], epoch: epoch, base: base, dlen: dlen}
	c.next = (c.next + 1) % mergeCacheSize
}

// addDelta records freshly added view bits in the outgoing delta. It ORs
// into the tail entry when the word matches and the entry has not been
// published by a Send yet; otherwise it appends, keeping every published
// prefix frozen (see the concurrency argument above). Only the tail is
// probed: intern ids ascend, so a burst of same-round classes lands in a
// run of same-word adds, which the tail probe compacts; scanning deeper
// buys little once additions scatter across words (large views receive
// ids across the whole distance spectrum each round) and taxes every add.
func (p *proc) addDelta(w int32, mask uint64) {
	if n := len(p.delta); n > p.published && p.delta[n-1].w == w {
		p.delta[n-1].mask |= mask
		return
	}
	p.delta = append(p.delta, wordMask{w: w, mask: mask})
}

// mergeEntries folds delta entries into the view, recording every newly
// set bit in p.delta.
func (p *proc) mergeEntries(entries []wordMask) {
	for _, e := range entries {
		w := int(e.w)
		if w >= len(p.view.bits) {
			p.view.grow(w)
		}
		if fresh := e.mask &^ p.view.bits[w]; fresh != 0 {
			p.view.bits[w] |= fresh
			p.addDelta(e.w, fresh)
		}
	}
}

// mergeWords folds a full snapshot into the view, recording every newly
// set bit in p.delta.
func (p *proc) mergeWords(other []uint64) {
	if len(other) > len(p.view.bits) {
		p.view.grow(len(other) - 1)
	}
	for i, w := range other {
		if diff := w &^ p.view.bits[i]; diff != 0 {
			p.view.bits[i] |= diff
			p.addDelta(int32(i), diff)
		}
	}
}

// mergeMsg folds one received message into the view. Every newly visible
// bit lands in p.delta, which doubles as the leader's incremental index
// and the process's own outgoing delta.
func (p *proc) mergeMsg(m any) {
	vm, ok := m.(*viewDelta)
	if !ok {
		return
	}
	if ref := p.seen.find(vm.base, vm.epoch); ref != nil {
		if ref.dlen > len(vm.delta) {
			// A sender shrank its delta without rebasing. Protocol senders
			// never do; reprocess the whole delta defensively.
			ref.dlen = 0
		}
		p.mergeEntries(vm.delta[ref.dlen:])
		ref.dlen = len(vm.delta)
		return
	}
	p.mergeWords(vm.base)
	p.mergeEntries(vm.delta)
	p.seen.insert(vm.base, vm.epoch, len(vm.delta))
}
