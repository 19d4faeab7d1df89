package multigraph

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetOf(t *testing.T) {
	s := SetOf(1, 3)
	if !s.Has(1) || s.Has(2) || !s.Has(3) {
		t.Fatalf("SetOf(1,3) = %v", s)
	}
	if s.Size() != 2 {
		t.Fatalf("Size = %d, want 2", s.Size())
	}
}

func TestSetOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetOf(0) did not panic")
		}
	}()
	SetOf(0)
}

func TestLabelSetHasOutOfRange(t *testing.T) {
	s := SetOf(1)
	if s.Has(0) || s.Has(MaxK+1) {
		t.Fatal("Has out-of-range label returned true")
	}
}

func TestLabelsAscending(t *testing.T) {
	s := SetOf(3, 1, 2)
	got := s.Labels()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Labels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", got, want)
		}
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		s    LabelSet
		k    int
		want bool
	}{
		{SetOf(1), 2, true},
		{SetOf(1, 2), 2, true},
		{SetOf(3), 2, false}, // label outside alphabet
		{0, 2, false},        // empty
		{SetOf(1), 0, false}, // bad k
		{SetOf(1), MaxK + 1, false},
	}
	for _, tc := range cases {
		if got := tc.s.Valid(tc.k); got != tc.want {
			t.Fatalf("Valid(%v, k=%d) = %v, want %v", tc.s, tc.k, got, tc.want)
		}
	}
}

func TestLabelSetString(t *testing.T) {
	if got := SetOf(1, 2).String(); got != "{1,2}" {
		t.Fatalf("String = %q", got)
	}
	if got := LabelSet(0).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestSymbolOrderMatchesPaper(t *testing.T) {
	// Paper's order for k=2: {1} < {2} < {1,2}.
	if SymbolIndex(SetOf(1)) != 0 || SymbolIndex(SetOf(2)) != 1 || SymbolIndex(SetOf(1, 2)) != 2 {
		t.Fatal("symbol order does not match the paper")
	}
	if SymbolCount(2) != 3 {
		t.Fatalf("SymbolCount(2) = %d", SymbolCount(2))
	}
	for i := 0; i < 3; i++ {
		if SymbolIndex(SymbolFromIndex(i)) != i {
			t.Fatalf("SymbolFromIndex/SymbolIndex not inverse at %d", i)
		}
	}
}

func TestAllSymbols(t *testing.T) {
	got := AllSymbols(2)
	want := []LabelSet{SetOf(1), SetOf(2), SetOf(1, 2)}
	if len(got) != len(want) {
		t.Fatalf("AllSymbols = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AllSymbols = %v, want %v", got, want)
		}
	}
	if n := len(AllSymbols(3)); n != 7 {
		t.Fatalf("AllSymbols(3) has %d entries, want 7", n)
	}
}

func TestHistoryBasics(t *testing.T) {
	h := History{SetOf(1), SetOf(1, 2)}
	if h.String() != "[⊥,{1},{1,2}]" {
		t.Fatalf("String = %q", h.String())
	}
	h2 := h.Extend(SetOf(2))
	if len(h2) != 3 || len(h) != 2 {
		t.Fatal("Extend mutated receiver or wrong length")
	}
	if !h2.Prefix(2).Equal(h) {
		t.Fatal("Prefix(2) != original")
	}
	if !h.Equal(History{SetOf(1), SetOf(1, 2)}) {
		t.Fatal("Equal failed on identical histories")
	}
	if h.Equal(h2) || h.Equal(History{SetOf(2), SetOf(1, 2)}) {
		t.Fatal("Equal true on different histories")
	}
	if h.Prefix(10).Equal(h2) {
		t.Fatal("over-long Prefix should clamp to the receiver")
	}
}

func TestHistoryKeyInjective(t *testing.T) {
	a := History{SetOf(1), SetOf(2)}
	b := History{SetOf(1, 2)}
	c := History{SetOf(1), SetOf(2)}
	if a.Key() == b.Key() {
		t.Fatal("distinct histories share a key")
	}
	if a.Key() != c.Key() {
		t.Fatal("equal histories have different keys")
	}
}

// fmtKey is History.Key's original fmt form: each label set's bitmask
// printed with %d, joined by dots. Keys are wire strings and kernel map
// keys, so the strconv form must match it byte for byte.
func fmtKey(h History) string {
	var sb strings.Builder
	for i, s := range h {
		if i > 0 {
			sb.WriteByte('.')
		}
		fmt.Fprintf(&sb, "%d", uint32(s))
	}
	return sb.String()
}

func TestHistoryKeyMatchesFmt(t *testing.T) {
	for length := 0; length <= 6; length++ {
		for i := 0; i < HistoryCount(length, 2); i++ {
			h := HistoryFromIndex(i, length, 2)
			if got, want := h.Key(), fmtKey(h); got != want {
				t.Fatalf("k=2 %v: Key %q, fmt form %q", h, got, want)
			}
		}
	}
	// k=16 bitmasks run to five digits, so long histories overflow the
	// stack buffer and take the append path.
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 500; i++ {
		h := make(History, rng.Intn(40))
		for j := range h {
			h[j] = SymbolFromIndex(rng.Intn(SymbolCount(16)))
		}
		if got, want := h.Key(), fmtKey(h); got != want {
			t.Fatalf("k=16 %v: Key %q, fmt form %q", h, got, want)
		}
	}
}

func TestHistoryIndexRoundTrip(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for length := 0; length <= 3; length++ {
			total := HistoryCount(length, k)
			for i := 0; i < total; i++ {
				h := HistoryFromIndex(i, length, k)
				if got := h.Index(k); got != i {
					t.Fatalf("k=%d len=%d: Index(HistoryFromIndex(%d)) = %d", k, length, i, got)
				}
			}
		}
	}
}

func TestHistoryIndexPaperOrdering(t *testing.T) {
	// For k=2, length 2: first column is [{1},{1}], second [{1},{2}],
	// last [{1,2},{1,2}] (Section 4.2's lexicographic ordering).
	first := History{SetOf(1), SetOf(1)}
	second := History{SetOf(1), SetOf(2)}
	last := History{SetOf(1, 2), SetOf(1, 2)}
	if first.Index(2) != 0 || second.Index(2) != 1 || last.Index(2) != 8 {
		t.Fatalf("indices = %d %d %d, want 0 1 8", first.Index(2), second.Index(2), last.Index(2))
	}
}

func TestHistoryCountGrowth(t *testing.T) {
	// 3^{r+1} histories at round r for k=2 (the paper's column count).
	for r := 0; r <= 6; r++ {
		want := 1
		for i := 0; i <= r; i++ {
			want *= 3
		}
		if got := HistoryCount(r+1, 2); got != want {
			t.Fatalf("HistoryCount(%d,2) = %d, want %d", r+1, got, want)
		}
	}
}

func TestHistoryCountSaturatesAtMaxInt(t *testing.T) {
	// 3^39 < MaxInt64 < 3^40: length 39 is the last exact power, 40 the
	// first saturated one. Before the guard, 40 wrapped to a bogus
	// in-range value instead of saturating.
	exact := 1
	for i := 0; i < 39; i++ {
		exact *= 3
	}
	if got := HistoryCount(39, 2); got != exact {
		t.Fatalf("HistoryCount(39,2) = %d, want exact 3^39 = %d", got, exact)
	}
	for _, length := range []int{40, 41, 100, 1 << 20} {
		if got := HistoryCount(length, 2); got != math.MaxInt {
			t.Fatalf("HistoryCount(%d,2) = %d, want MaxInt saturation", length, got)
		}
	}
	// Monotonicity across the boundary — the property overflow broke.
	if HistoryCount(40, 2) < HistoryCount(39, 2) {
		t.Fatal("HistoryCount not monotone across the saturation boundary")
	}
	// k=3 (alphabet base 7) saturates earlier but the same way.
	if got := HistoryCount(100, 3); got != math.MaxInt {
		t.Fatalf("HistoryCount(100,3) = %d, want MaxInt saturation", got)
	}
}

// Property: Index is a bijection onto [0, HistoryCount) — round-tripping
// random histories is the identity.
func TestHistoryIndexBijectionProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		const k = 2
		h := make(History, 0, len(raw)%6)
		for _, b := range raw {
			if len(h) >= 6 {
				break
			}
			h = append(h, SymbolFromIndex(int(b)%SymbolCount(k)))
		}
		idx := h.Index(k)
		back := HistoryFromIndex(idx, len(h), k)
		return back.Equal(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
