package linalg

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"anondyn/internal/obs"
)

func TestNewMatrix(t *testing.T) {
	m, err := NewMatrix(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(1, 2).Sign() != 0 {
		t.Fatal("new matrix not zero")
	}
}

func TestNewMatrixNegative(t *testing.T) {
	if _, err := NewMatrix(-1, 2); err == nil {
		t.Fatal("negative dims should error")
	}
}

func TestFromIntsRagged(t *testing.T) {
	if _, err := FromInts([][]int{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged input should error")
	}
}

func TestMustFromIntsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromInts did not panic")
		}
	}()
	MustFromInts([][]int{{1}, {2, 3}})
}

func TestSetAndAt(t *testing.T) {
	m := MustFromInts([][]int{{0, 0}, {0, 0}})
	m.Set(0, 1, big.NewInt(7))
	m.SetInt64(1, 0, -3)
	if m.At(0, 1).Int64() != 7 || m.At(1, 0).Int64() != -3 {
		t.Fatalf("Set/At mismatch: %s", m)
	}
	// At returns a copy: mutating it must not affect the matrix.
	m.At(0, 1).SetInt64(99)
	if m.At(0, 1).Int64() != 7 {
		t.Fatal("At leaked internal storage")
	}
}

func TestCloneMatrix(t *testing.T) {
	m := MustFromInts([][]int{{1, 2}, {3, 4}})
	c := m.Clone()
	c.SetInt64(0, 0, 99)
	if m.At(0, 0).Int64() != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMulVec(t *testing.T) {
	// The paper's M_0 = [1 0 1; 0 1 1] with s = [0 0 2] gives m = [2 2]
	// (Figure 3's system of equations at round 0).
	m0 := MustFromInts([][]int{{1, 0, 1}, {0, 1, 1}})
	s := VecFromInts(0, 0, 2)
	got, err := m0.MulVec(s)
	if err != nil {
		t.Fatal(err)
	}
	want := VecFromInts(2, 2)
	if !got.Equal(want) {
		t.Fatalf("M0*s = %s, want %s", got, want)
	}
}

func TestMulVecBadLength(t *testing.T) {
	m := MustFromInts([][]int{{1, 2}})
	if _, err := m.MulVec(VecFromInts(1)); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestRankFullAndDeficient(t *testing.T) {
	cases := []struct {
		name string
		m    *Matrix
		want int
	}{
		{"identity", MustFromInts([][]int{{1, 0}, {0, 1}}), 2},
		{"M0 of the paper", MustFromInts([][]int{{1, 0, 1}, {0, 1, 1}}), 2},
		{"dependent rows", MustFromInts([][]int{{1, 2}, {2, 4}}), 1},
		{"zero", MustFromInts([][]int{{0, 0}, {0, 0}}), 0},
		{"tall", MustFromInts([][]int{{1}, {2}, {3}}), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.m.Rank(); got != tc.want {
				t.Fatalf("Rank = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestKernelBasisM0(t *testing.T) {
	// ker(M_0) = span([1 1 -1]) — the paper's k_0.
	m0 := MustFromInts([][]int{{1, 0, 1}, {0, 1, 1}})
	basis := m0.KernelBasis()
	if len(basis) != 1 {
		t.Fatalf("kernel dim = %d, want 1", len(basis))
	}
	k := basis[0]
	// The basis vector is primitive and proportional to [1 1 -1];
	// accept either sign.
	want := VecFromInts(1, 1, -1)
	if !k.Equal(want) && !k.Equal(want.Neg()) {
		t.Fatalf("kernel = %s, want ±%s", k, want)
	}
	// And it is actually in the kernel.
	prod, err := m0.MulVec(k)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.IsZero() {
		t.Fatalf("M0*k = %s, want 0", prod)
	}
}

func TestKernelBasisTrivial(t *testing.T) {
	id := MustFromInts([][]int{{1, 0}, {0, 1}})
	if basis := id.KernelBasis(); len(basis) != 0 {
		t.Fatalf("identity kernel dim = %d, want 0", len(basis))
	}
}

func TestKernelBasisFractionalPivots(t *testing.T) {
	// Rows force a fractional RREF; the returned basis must still be a
	// primitive integer vector.
	m := MustFromInts([][]int{{2, 0, 3}, {0, 2, 5}})
	basis := m.KernelBasis()
	if len(basis) != 1 {
		t.Fatalf("kernel dim = %d, want 1", len(basis))
	}
	prod, err := m.MulVec(basis[0])
	if err != nil {
		t.Fatal(err)
	}
	if !prod.IsZero() {
		t.Fatalf("m*k = %s, want 0", prod)
	}
	// Primitivity: gcd of components is 1.
	g := new(big.Int)
	for _, c := range basis[0] {
		g.GCD(nil, nil, g, new(big.Int).Abs(c))
	}
	if g.Int64() != 1 {
		t.Fatalf("kernel vector %s not primitive (gcd %s)", basis[0], g)
	}
}

// TestEliminationMetrics pins what the elimination reports to an installed
// collector: one pivot per unit of rank, and the widest numerator or
// denominator left in a normalized pivot row.
func TestEliminationMetrics(t *testing.T) {
	prev := obs.Global()
	defer obs.Set(prev)
	col := obs.New()
	obs.Set(col)

	// The third row is the sum of the first two, and the RREF is
	// [1 0 0; 0 1 1/2; 0 0 0]. The widest entry left in a pivot row is the
	// denominator 2, two bits; before it was normalized, the second pivot
	// row read [0 4 2], three bits.
	m := MustFromInts([][]int{{1, 0, 0}, {0, 4, 2}, {1, 4, 2}})
	if got := m.Rank(); got != 2 {
		t.Fatalf("Rank = %d, want 2", got)
	}
	if got := col.Counter(obs.LinalgPivots).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", obs.LinalgPivots, got)
	}
	if got := col.Gauge(obs.LinalgPeakBits).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", obs.LinalgPeakBits, got)
	}
}

func TestSolveParticularConsistent(t *testing.T) {
	m0 := MustFromInts([][]int{{1, 0, 1}, {0, 1, 1}})
	b := VecFromInts(2, 2)
	x, ok, err := m0.SolveParticular(b)
	if err != nil || !ok {
		t.Fatalf("SolveParticular: ok=%v err=%v", ok, err)
	}
	prod, err := m0.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(b) {
		t.Fatalf("m*x = %s, want %s", prod, b)
	}
}

func TestSolveParticularInconsistent(t *testing.T) {
	m := MustFromInts([][]int{{1, 0}, {1, 0}})
	b := VecFromInts(1, 2)
	_, ok, err := m.SolveParticular(b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("inconsistent system reported solvable")
	}
}

func TestSolveParticularBadLength(t *testing.T) {
	m := MustFromInts([][]int{{1, 0}})
	if _, _, err := m.SolveParticular(VecFromInts(1, 2)); err == nil {
		t.Fatal("rhs length mismatch should error")
	}
}

func TestVectorArithmetic(t *testing.T) {
	v := VecFromInts(1, -2, 3)
	w := VecFromInts(4, 5, -6)
	if got := v.Add(w); !got.Equal(VecFromInts(5, 3, -3)) {
		t.Fatalf("Add = %s", got)
	}
	if got := v.Sub(w); !got.Equal(VecFromInts(-3, -7, 9)) {
		t.Fatalf("Sub = %s", got)
	}
	if got := v.Scale(big.NewInt(2)); !got.Equal(VecFromInts(2, -4, 6)) {
		t.Fatalf("Scale = %s", got)
	}
	if got := v.Neg(); !got.Equal(VecFromInts(-1, 2, -3)) {
		t.Fatalf("Neg = %s", got)
	}
}

func TestVectorSums(t *testing.T) {
	// The paper's k_1 = [1 1 -1 1 1 -1 -1 -1 1]:
	// Σ = 1, Σ⁺ = 5, Σ⁻ = 4.
	k1 := VecFromInts(1, 1, -1, 1, 1, -1, -1, -1, 1)
	if s := k1.Sum(); s.Int64() != 1 {
		t.Fatalf("Sum = %s, want 1", s)
	}
	if s := k1.SumPositive(); s.Int64() != 5 {
		t.Fatalf("SumPositive = %s, want 5", s)
	}
	if s := k1.SumNegative(); s.Int64() != 4 {
		t.Fatalf("SumNegative = %s, want 4", s)
	}
}

func TestVectorPredicates(t *testing.T) {
	if !NewVector(3).IsZero() {
		t.Fatal("zero vector not IsZero")
	}
	if VecFromInts(0, 1).IsZero() {
		t.Fatal("nonzero vector IsZero")
	}
	if !VecFromInts(0, 2).NonNegative() {
		t.Fatal("[0 2] should be NonNegative")
	}
	if VecFromInts(0, -1).NonNegative() {
		t.Fatal("[0 -1] should not be NonNegative")
	}
}

func TestVectorAppend(t *testing.T) {
	v := VecFromInts(1, 2)
	w := VecFromInts(3)
	got := v.Append(w)
	if !got.Equal(VecFromInts(1, 2, 3)) {
		t.Fatalf("Append = %s", got)
	}
	// Append copies: mutating the result must not affect inputs.
	got[0].SetInt64(99)
	if v[0].Int64() != 1 {
		t.Fatal("Append aliased input storage")
	}
}

func TestVectorEqualLengthMismatch(t *testing.T) {
	if VecFromInts(1).Equal(VecFromInts(1, 2)) {
		t.Fatal("different lengths reported equal")
	}
}

func TestVectorString(t *testing.T) {
	if s := VecFromInts(1, -2).String(); s != "[1 -2]" {
		t.Fatalf("String = %q", s)
	}
}

func TestVectorAddPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add length mismatch did not panic")
		}
	}()
	VecFromInts(1).Add(VecFromInts(1, 2))
}

// randMatrix draws a rows x cols integer matrix for the property tests. Half
// the matrices have entries in [-mag, mag], a quarter have entries within a
// few units of ±MaxInt64 (MinInt64 among them), and a quarter have entries
// beyond int64. Any row may come out zero-heavy or as a copy of an earlier
// row, which forces pivot searches, row swaps and rank deficiency.
func randMatrix(rng *rand.Rand, rows, cols int, mag int64) *Matrix {
	m, err := NewMatrix(rows, cols)
	if err != nil {
		panic(err)
	}
	regime := rng.Intn(4)
	entry := func() *big.Int {
		sign := int64(1 - 2*rng.Intn(2))
		switch regime {
		case 2: // near ±MaxInt64, and MinInt64
			if sign < 0 && rng.Intn(4) == 0 {
				return big.NewInt(math.MinInt64)
			}
			return big.NewInt(sign * (math.MaxInt64 - rng.Int63n(3)))
		case 3: // beyond int64: up to about 2^100
			v := new(big.Int).Lsh(big.NewInt(rng.Int63n(1<<20)+1), uint(50+rng.Intn(30)))
			return v.Mul(v, big.NewInt(sign))
		default:
			return big.NewInt(rng.Int63n(2*mag+1) - mag)
		}
	}
	for i := 0; i < rows; i++ {
		if i > 0 && rng.Intn(4) == 0 {
			src := rng.Intn(i)
			for j := 0; j < cols; j++ {
				m.Set(i, j, m.At(src, j))
			}
			continue
		}
		zeroHeavy := rng.Intn(4) == 0
		for j := 0; j < cols; j++ {
			if !zeroHeavy || rng.Intn(4) == 0 {
				m.Set(i, j, entry())
			}
		}
	}
	return m
}

// Property: every kernel basis vector of a random integer matrix
// multiplies to zero, and rank + kernel dim = cols (rank-nullity, the fact
// Lemma 2's proof closes with).
func TestRankNullityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(5) + 1
		cols := rng.Intn(5) + 1
		m := randMatrix(rng, rows, cols, 3)
		basis := m.KernelBasis()
		if m.Rank()+len(basis) != cols {
			return false
		}
		for _, k := range basis {
			prod, err := m.MulVec(k)
			if err != nil || !prod.IsZero() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: SolveParticular returns a genuine solution whenever b is in the
// column space (constructed as b = m*x for random integer x and a matrix
// from randMatrix).
func TestSolveParticularProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(4) + 1
		cols := rng.Intn(4) + 1
		m := randMatrix(rng, rows, cols, 2)
		x := NewVector(cols)
		for j := 0; j < cols; j++ {
			x[j].SetInt64(int64(rng.Intn(9) - 4))
		}
		b, err := m.MulVec(x)
		if err != nil {
			return false
		}
		sol, ok, err := m.SolveParticular(b)
		if err != nil {
			// A fractional particular solution can occur for arbitrary
			// random matrices; the contract only promises integrality for
			// the paper's node-count systems. Treat as vacuous.
			return true
		}
		if !ok {
			return false
		}
		prod, err := m.MulVec(sol)
		return err == nil && prod.Equal(b)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
