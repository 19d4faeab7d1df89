package linalg

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// benchMatrix draws a dense r x c matrix with entries in [-mag, mag]\{0}.
// mag selects the arithmetic regime: small magnitudes keep the whole
// elimination on the int64 fast path; magnitudes near 2^32 make the first
// pivot products overflow, so the run spills to big.Int almost immediately.
// Benchmarking both sides makes the fallback cliff visible in the output.
func benchMatrix(seed int64, r, c int, mag int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m, err := NewMatrix(r, c)
	if err != nil {
		panic(err)
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := rng.Int63n(2*mag) - mag
			if v >= 0 {
				v++
			}
			m.SetInt64(i, j, v)
		}
	}
	return m
}

func BenchmarkRREF(b *testing.B) {
	cases := []struct {
		name string
		mag  int64
	}{
		{"int64", 9},              // stays on the int64 fast path throughout
		{"spill", int64(1) << 32}, // overflows at the first pivot, runs big
	}
	for _, tc := range cases {
		for _, n := range []int{8, 16} {
			m := benchMatrix(1, n, n+1, tc.mag)
			b.Run(fmt.Sprintf("%s/%dx%d", tc.name, n, n+1), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.RREF()
				}
			})
		}
	}
}

func BenchmarkRREFReference(b *testing.B) {
	m := benchMatrix(1, 16, 17, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.RREFReference()
	}
}

var sinkRat [][]*big.Rat

func BenchmarkKernelBasis(b *testing.B) {
	m := benchMatrix(3, 12, 16, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.KernelBasis()
	}
	_ = sinkRat
}
