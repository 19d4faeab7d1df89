package linalg

import (
	"math/rand"
	"testing"
)

// benchMatrix draws a dense r x c matrix with entries in [-mag, mag]\{0}.
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

func BenchmarkKernelBasis(b *testing.B) {
	m := benchMatrix(3, 12, 16, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.KernelBasis()
	}
}
