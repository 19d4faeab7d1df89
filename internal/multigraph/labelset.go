// Package multigraph implements the paper's dynamic bipartite labeled
// k-multigraphs, ℳ(DBL)ₖ (Section 4.1): a leader v_l and a set W of
// anonymous nodes, where at every round each node v ∈ W is connected to the
// leader by between 1 and k parallel edges carrying distinct labels from
// {1, ..., k}.
//
// A node's whole interaction with the leader at round r is its label set
// L(v,r) (Definition 5); its state S(v,r) is the history of label sets it
// has seen (Definition 6); and the leader's state is the per-round multiset
// of (label, neighbor-state) pairs (Definition 7). The lower bound machinery
// in internal/kernel operates on vectors indexed by these histories; this
// package realizes the combinatorics and the Lemma-1 transformation into
// 𝒢(PD)₂ dynamic graphs.
package multigraph

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// LabelSet is a non-empty subset of the edge labels {1, ..., k}, stored as a
// bitmask with bit i-1 representing label i. The zero value is the empty
// set, which is never a valid per-round label set (every node in W has at
// least one edge to the leader each round).
type LabelSet uint32

// MaxK is the largest supported label alphabet. The state space grows as
// (2^k - 1)^rounds, so large k is of purely theoretical interest.
const MaxK = 16

// SetOf builds a LabelSet from explicit labels (1-based).
// It panics on labels outside [1, MaxK]; use Valid to check built sets.
func SetOf(labels ...int) LabelSet {
	var s LabelSet
	for _, l := range labels {
		if l < 1 || l > MaxK {
			panic(fmt.Sprintf("multigraph: label %d out of range [1,%d]", l, MaxK))
		}
		s |= 1 << (l - 1)
	}
	return s
}

// Has reports whether label l is in the set.
func (s LabelSet) Has(l int) bool {
	if l < 1 || l > MaxK {
		return false
	}
	return s&(1<<(l-1)) != 0
}

// Size returns the number of labels in the set (the edge multiplicity
// |E^v(r)| of the node at that round).
func (s LabelSet) Size() int {
	n := 0
	for v := s; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Labels returns the labels in ascending order.
func (s LabelSet) Labels() []int {
	out := make([]int, 0, s.Size())
	for l := 1; l <= MaxK; l++ {
		if s.Has(l) {
			out = append(out, l)
		}
	}
	return out
}

// Valid reports whether s is a legal per-round label set for alphabet size
// k: non-empty and within {1, ..., k}.
func (s LabelSet) Valid(k int) bool {
	if k < 1 || k > MaxK {
		return false
	}
	if s == 0 {
		return false
	}
	return s < 1<<k
}

// String renders the set in the paper's notation, e.g. "{1,2}".
func (s LabelSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range s.Labels() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", l)
	}
	sb.WriteByte('}')
	return sb.String()
}

// SymbolCount returns the number of possible per-round label sets for
// alphabet size k: 2^k - 1 (3 for the paper's k = 2 case).
func SymbolCount(k int) int { return (1 << k) - 1 }

// SymbolIndex returns the rank of s in the canonical symbol order.
// For k = 2 this is the paper's order {1} < {2} < {1,2}, which coincides
// with numeric bitmask order; we use bitmask order for every k.
func SymbolIndex(s LabelSet) int { return int(s) - 1 }

// SymbolFromIndex is the inverse of SymbolIndex.
func SymbolFromIndex(idx int) LabelSet { return LabelSet(idx + 1) }

// AllSymbols lists every valid label set for alphabet size k in canonical
// order.
func AllSymbols(k int) []LabelSet {
	out := make([]LabelSet, SymbolCount(k))
	for i := range out {
		out[i] = SymbolFromIndex(i)
	}
	return out
}

// History is a node state S(v,r): the ordered list of label sets the node
// observed at rounds 0, ..., r-1 (Definition 6). The implicit initial ⊥ is
// not stored. The empty history is the initial state of every node.
type History []LabelSet

// Equal reports element-wise equality.
func (h History) Equal(other History) bool {
	if len(h) != len(other) {
		return false
	}
	for i := range h {
		if h[i] != other[i] {
			return false
		}
	}
	return true
}

// Extend returns a new history with s appended; the receiver is not
// modified.
func (h History) Extend(s LabelSet) History {
	out := make(History, len(h)+1)
	copy(out, h)
	out[len(h)] = s
	return out
}

// Prefix returns the first n entries as a copy.
func (h History) Prefix(n int) History {
	if n > len(h) {
		n = len(h)
	}
	out := make(History, n)
	copy(out, h[:n])
	return out
}

// String renders the state in the paper's notation, e.g. "[⊥,{1},{1,2}]".
func (h History) String() string {
	var sb strings.Builder
	sb.WriteString("[⊥")
	for _, s := range h {
		sb.WriteByte(',')
		sb.WriteString(s.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// Key returns a compact canonical encoding usable as a map key: the label
// sets' bitmasks in decimal, joined by dots ("1.3.2"). Two histories have
// the same key iff they are Equal. The digits are appended into a stack
// buffer, so a key of up to 64 bytes costs one allocation, the string.
func (h History) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, s := range h {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(s), 10)
	}
	return string(b)
}

// Index returns the rank of h among all histories of the same length over
// alphabet size k, ordered lexicographically with the canonical symbol
// order (the paper's column ordering of M_r). The first entry is the most
// significant digit.
func (h History) Index(k int) int {
	base := SymbolCount(k)
	idx := 0
	for _, s := range h {
		idx = idx*base + SymbolIndex(s)
	}
	return idx
}

// HistoryFromIndex is the inverse of Index for histories of the given
// length.
func HistoryFromIndex(idx, length, k int) History {
	h := make(History, length)
	decodeHistory(h, idx, k)
	return h
}

// decodeHistory writes into h the history of length len(h) whose index is
// idx.
func decodeHistory(h History, idx, k int) {
	base := SymbolCount(k)
	for i := len(h) - 1; i >= 0; i-- {
		h[i] = SymbolFromIndex(idx % base)
		idx /= base
	}
}

// HistoryCount returns the number of possible node states after `length`
// rounds with alphabet size k: (2^k - 1)^length, the paper's 3^{r+1} column
// count for k = 2. When the exact power exceeds math.MaxInt (length >= 40
// for k = 2) the result saturates at math.MaxInt instead of wrapping —
// callers sizing closed-form Σ⁻k_r quantities compare against it, and a
// wrapped (negative or small) count would silently pass those comparisons.
func HistoryCount(length, k int) int {
	base := SymbolCount(k)
	n := 1
	for i := 0; i < length; i++ {
		if n > math.MaxInt/base {
			return math.MaxInt
		}
		n *= base
	}
	return n
}
