package linalg

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// randMatrix draws an r x c matrix with entries in [-mag, mag], with an
// elevated chance of zeros (rank deficiency) and duplicated rows (linear
// dependence), the regimes where elimination bookkeeping is subtle.
func randMatrix(rng *rand.Rand, r, c int, mag int64) *Matrix {
	m, err := NewMatrix(r, c)
	if err != nil {
		panic(err)
	}
	for i := 0; i < r; i++ {
		if i > 0 && rng.Intn(4) == 0 {
			src := rng.Intn(i)
			for j := 0; j < c; j++ {
				m.Set(i, j, m.At(src, j))
			}
			continue
		}
		for j := 0; j < c; j++ {
			if rng.Intn(3) == 0 {
				continue // leave zero
			}
			v := rng.Int63n(2*mag+1) - mag
			m.Set(i, j, big.NewInt(v))
		}
	}
	return m
}

func sameRREF(t *testing.T, m *Matrix) {
	t.Helper()
	fa, fp := m.RREF()
	ra, rp := m.RREFReference()
	if len(fp) != len(rp) {
		t.Fatalf("pivot count: fast %v, reference %v", fp, rp)
	}
	for i := range fp {
		if fp[i] != rp[i] {
			t.Fatalf("pivot columns: fast %v, reference %v", fp, rp)
		}
	}
	for i := range fa {
		for j := range fa[i] {
			if fa[i][j].Cmp(ra[i][j]) != 0 {
				t.Fatalf("entry (%d,%d): fast %s, reference %s", i, j, fa[i][j], ra[i][j])
			}
		}
	}
}

func TestRREFFastMatchesReferenceSmallEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		r, c := 1+rng.Intn(7), 1+rng.Intn(7)
		sameRREF(t, randMatrix(rng, r, c, 9))
	}
}

func TestRREFFastMatchesReferenceOverflowBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 120; iter++ {
		r, c := 2+rng.Intn(5), 2+rng.Intn(5)
		// Entries near 2^32: the first pivot products land near 2^64, so
		// runs straddle the int64→big.Int spill nondeterministically.
		sameRREF(t, randMatrix(rng, r, c, int64(1)<<32))
	}
}

func TestRREFFastMatchesReferenceHugeEntries(t *testing.T) {
	// Entries beyond int64 force big mode from the load.
	m := MustFromInts([][]int{{1, 2}, {3, 4}})
	huge := new(big.Int).Lsh(big.NewInt(1), 80)
	m.Set(0, 0, huge)
	sameRREF(t, m)
}

func TestRREFFastMinInt64Entries(t *testing.T) {
	// MinInt64 loads into the int64 path but almost any product spills.
	m, err := NewMatrix(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, big.NewInt(math.MinInt64))
	m.Set(0, 1, big.NewInt(3))
	m.Set(1, 0, big.NewInt(7))
	m.Set(1, 1, big.NewInt(math.MaxInt64))
	sameRREF(t, m)
}

func TestCheckedOps(t *testing.T) {
	cases := []struct {
		a, b int64
		ok   bool
	}{
		{0, math.MinInt64, true},
		{1, math.MinInt64, true},
		{math.MinInt64, 1, true},
		{math.MinInt64, -1, false},
		{-1, math.MinInt64, false},
		{math.MinInt64, 2, false},
		{1 << 32, 1 << 32, false},
		{1 << 31, 1 << 31, true},
		{math.MaxInt64, 1, true},
		{math.MaxInt64, 2, false},
	}
	for _, tc := range cases {
		if _, ok := mul64(tc.a, tc.b); ok != tc.ok {
			t.Errorf("mul64(%d,%d) ok=%v, want %v", tc.a, tc.b, ok, tc.ok)
		}
	}
	if v, ok := mul64(3, -7); !ok || v != -21 {
		t.Errorf("mul64(3,-7) = %d,%v", v, ok)
	}
	if _, ok := sub64(math.MinInt64, 1); ok {
		t.Error("sub64(MinInt64,1) should overflow")
	}
	if _, ok := sub64(math.MaxInt64, -1); ok {
		t.Error("sub64(MaxInt64,-1) should overflow")
	}
	if v, ok := sub64(5, 9); !ok || v != -4 {
		t.Errorf("sub64(5,9) = %d,%v", v, ok)
	}
	if abs64(math.MinInt64) != 1<<63 {
		t.Error("abs64(MinInt64)")
	}
	if abs64(-5) != 5 || abs64(5) != 5 {
		t.Error("abs64 small values")
	}
}
