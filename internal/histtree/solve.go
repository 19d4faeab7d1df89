package histtree

import (
	"math/big"
	"math/bits"
)

// Red-edge cardinality solve. At a stable pair (t, t+1), |A|·mult(A'→B) =
// |B|·mult(B'→A) for every red edge between the unique children A', B' of
// level-t classes A, B, the leader's class has cardinality 1, and the
// round-(t+1) communication graph is connected — so a BFS over red edges
// determines every cardinality. The fast path propagates exact rationals
// in int64 numerator/denominator pairs (kept reduced, so equality is
// struct equality); any multiplication that would overflow spills the
// whole solve to the retained big.Rat reference implementation.
// Cardinalities are positive throughout, so the fast path never needs sign
// handling.

// frac is a positive rational in lowest terms (num, den > 0, gcd 1).
type frac struct{ num, den int64 }

// mulPos64 multiplies two positive int64s, reporting overflow.
func mulPos64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > uint64(1<<63-1) {
		return 0, false
	}
	return int64(lo), true
}

// addPos64 adds two positive int64s, reporting overflow.
func addPos64(a, b int64) (int64, bool) {
	s := a + b
	if s < a {
		return 0, false
	}
	return s, true
}

// gcdPos64 is Euclid's algorithm on positive int64s.
func gcdPos64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mulFrac computes a · (num/den) in lowest terms, reporting overflow.
// Cross-reducing before the multiplications keeps intermediates minimal,
// so the fast path spills only when the reduced result itself is near the
// int64 range. The final gcd pass is still required: cross-reduction only
// cancels across the two factors (a.num with den, num with a.den), so a
// common factor within one factor — e.g. 1/1 · 10650/1775 — survives it,
// and an unreduced result would break both the den==1 integrality check
// and frac's equality-by-struct-comparison invariant.
func mulFrac(a frac, num, den int64) (frac, bool) {
	if g := gcdPos64(a.num, den); g > 1 {
		a.num /= g
		den /= g
	}
	if g := gcdPos64(num, a.den); g > 1 {
		num /= g
		a.den /= g
	}
	n, ok := mulPos64(a.num, num)
	if !ok {
		return frac{}, false
	}
	d, ok := mulPos64(a.den, den)
	if !ok {
		return frac{}, false
	}
	if g := gcdPos64(n, d); g > 1 {
		n /= g
		d /= g
	}
	return frac{num: n, den: d}, true
}

// solve derives every class cardinality at the stable pair (t, t+1) and
// returns their sum, answering from the single-slot cache when the pair's
// visible classes have not changed since the last solve (see pairCache).
// classify(t) must have returned pairStable immediately before, so childOf
// holds the unique-child map for level t.
func (l *leaderProc) solve(t int) (int, bool) {
	if l.cache.solved {
		// classify(t) just cache-hit on (t, level sizes), so the solve
		// inputs — childOf, the red edges, own[t] — are also unchanged.
		return l.cache.solvedN, l.cache.solvedOK
	}
	n, ok := l.solveFast(t)
	if n < 0 {
		// An int64 overflow: redo with exact big rationals.
		n, ok = l.solveRat(t)
	}
	l.cache.solved, l.cache.solvedN, l.cache.solvedOK = true, n, ok
	return n, ok
}

// backMult returns mult(B'→A): how many messages each member of class b
// heard from class a in round t+1, or 0 if none (including when b has no
// live childOf entry — defensively treated as "no back edge", which makes
// the solve report the view incomplete).
func (l *leaderProc) backMult(a, b int32) int32 {
	if int(b) >= len(l.childGen) || l.childGen[b] != l.chGen {
		return 0
	}
	for _, be := range l.red(l.childOf[b]) {
		if be.Class == a {
			return be.Mult
		}
	}
	return 0
}

// red returns the red edges of class id, which the leader sees.
func (l *leaderProc) red(id int32) []RedEdge { return l.view.red(l.view.node(id)) }

// solveFast is the int64 solve. It returns (-1, false) when any step
// overflows int64, in which case the caller must fall back to solveRat;
// on every non-overflowing input it returns bit-for-bit the same result
// as solveRat.
func (l *leaderProc) solveFast(t int) (int, bool) {
	l.fcards = grow(l.fcards, len(l.childOf))
	l.fcGen = grow(l.fcGen, len(l.childOf))
	l.fcGenID++
	start := l.own[t]
	l.fcards[start] = frac{num: 1, den: 1}
	l.fcGen[start] = l.fcGenID
	l.queue = append(l.queue[:0], start)
	// Index-cursor BFS: the queue slice is never re-sliced from the head,
	// so its capacity is reused across rounds instead of leaking away.
	// Every carded class is enqueued exactly once, so after the BFS the
	// queue is the set of solved classes in deterministic order.
	for qi := 0; qi < len(l.queue); qi++ {
		a := l.queue[qi]
		ca := l.fcards[a]
		for _, e := range l.red(l.childOf[a]) {
			b := e.Class
			if b == a {
				continue
			}
			back := l.backMult(a, b)
			if back == 0 {
				// A heard B but no B member heard A: impossible over
				// undirected edges at a true stable pair.
				return 0, false
			}
			// |B| = |A| · mult(A'→B) / mult(B'→A).
			cb, ok := mulFrac(ca, int64(e.Mult), int64(back))
			if !ok {
				return -1, false
			}
			if l.fcGen[b] == l.fcGenID {
				if l.fcards[b] != cb {
					return 0, false
				}
				continue
			}
			l.fcards[b] = cb
			l.fcGen[b] = l.fcGenID
			l.queue = append(l.queue, b)
		}
	}
	if len(l.queue) != len(l.perLevel[t]) {
		// Some visible class is not yet red-connected to the leader's:
		// the view is missing edges, wait for more information.
		return 0, false
	}
	total := int64(0)
	for _, id := range l.queue {
		c := l.fcards[id]
		if c.den != 1 {
			return 0, false
		}
		var ok bool
		if total, ok = addPos64(total, c.num); !ok {
			return -1, false
		}
	}
	if total > int64(int(^uint(0)>>1)) {
		return -1, false
	}
	return int(total), true
}

// ratAt returns the i-th pooled big.Rat, growing the pool as needed. The
// pool persists across solves so the fallback path allocates rationals
// only on its high-water mark.
func (l *leaderProc) ratAt(i int) *big.Rat {
	for len(l.ratPool) <= i {
		l.ratPool = append(l.ratPool, new(big.Rat))
	}
	return l.ratPool[i]
}

// solveRat is the exact reference solve over big.Rat, used directly when
// solveFast overflows and kept as the differential-testing oracle. It
// allocates only via the persistent rat pool (plus big.Int growth inside
// the pooled values).
func (l *leaderProc) solveRat(t int) (int, bool) {
	clear(l.cards)
	used := 0
	start := l.own[t]
	one := l.ratAt(used)
	used++
	one.SetInt64(1)
	l.cards[start] = one
	l.queue = append(l.queue[:0], start)
	for qi := 0; qi < len(l.queue); qi++ {
		a := l.queue[qi]
		ca := l.cards[a]
		for _, e := range l.red(l.childOf[a]) {
			b := e.Class
			if b == a {
				continue
			}
			back := l.backMult(a, b)
			if back == 0 {
				return 0, false
			}
			l.ratio.SetFrac64(int64(e.Mult), int64(back))
			cb := l.ratAt(used)
			cb.Mul(ca, &l.ratio)
			if prev, seen := l.cards[b]; seen {
				if prev.Cmp(cb) != 0 {
					return 0, false
				}
				continue
			}
			used++
			l.cards[b] = cb
			l.queue = append(l.queue, b)
		}
	}
	if len(l.queue) != len(l.perLevel[t]) {
		return 0, false
	}
	total := 0
	for _, id := range l.queue {
		c := l.cards[id]
		if !c.IsInt() || c.Sign() <= 0 {
			return 0, false
		}
		num := c.Num()
		if !num.IsInt64() {
			// A cardinality beyond int64 cannot be a real class size on
			// any network this harness can represent; reject rather than
			// truncate.
			return 0, false
		}
		v := num.Int64()
		if v > int64(int(^uint(0)>>1))-int64(total) {
			return 0, false
		}
		total += int(v)
	}
	return total, true
}
