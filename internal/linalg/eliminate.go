package linalg

import (
	"fmt"
	"math/big"

	"anondyn/internal/obs"
)

// rref computes the reduced row echelon form of m over the rationals by
// Gauss–Jordan elimination on big.Rat entries. It returns the RREF entries
// and the list of pivot columns.
//
// When a process-wide obs collector is installed, rref counts the pivots it
// consumes and records the widest numerator or denominator left in a pivot
// row (the coefficient growth exact elimination pays for). Unobserved
// processes pay one nil check per rref call.
func rref(m *Matrix) ([][]*big.Rat, []int) {
	var (
		pivotCtr *obs.Counter
		peakBits *obs.Gauge
	)
	if col := obs.Global(); col != nil {
		pivotCtr = col.Counter(obs.LinalgPivots)
		peakBits = col.Gauge(obs.LinalgPeakBits)
	}
	rows, cols := m.rows, m.cols
	a := make([][]*big.Rat, rows)
	for i := 0; i < rows; i++ {
		a[i] = make([]*big.Rat, cols)
		for j := 0; j < cols; j++ {
			a[i][j] = new(big.Rat).SetInt(m.a[i*cols+j])
		}
	}
	pivots := make([]int, 0, min(rows, cols))
	f, t := new(big.Rat), new(big.Rat)
	r := 0
	for c := 0; c < cols && r < rows; c++ {
		// Find a pivot in column c at or below row r.
		p := -1
		for i := r; i < rows; i++ {
			if a[i][c].Sign() != 0 {
				p = i
				break
			}
		}
		if p == -1 {
			continue
		}
		a[r], a[p] = a[p], a[r]
		// Normalize the pivot row.
		inv := new(big.Rat).Inv(a[r][c])
		for j := c; j < cols; j++ {
			a[r][j].Mul(a[r][j], inv)
		}
		// Eliminate the column everywhere else. The node-count systems are
		// mostly zeros, and a zero in the pivot row changes nothing, so the
		// loop skips those entries.
		for i := 0; i < rows; i++ {
			if i == r || a[i][c].Sign() == 0 {
				continue
			}
			f.Set(a[i][c])
			for j := c; j < cols; j++ {
				if a[r][j].Sign() != 0 {
					a[i][j].Sub(a[i][j], t.Mul(f, a[r][j]))
				}
			}
		}
		pivotCtr.Inc()
		if peakBits != nil {
			w := 0
			for j := c; j < cols; j++ {
				w = max(w, a[r][j].Num().BitLen(), a[r][j].Denom().BitLen())
			}
			peakBits.SetMax(int64(w))
		}
		pivots = append(pivots, c)
		r++
	}
	return a, pivots
}

// Rank returns the rank of m over the rationals.
func (m *Matrix) Rank() int {
	_, pivots := rref(m)
	return len(pivots)
}

// KernelBasis returns a basis of ker(m) = {x : m*x = 0} as primitive integer
// vectors (each scaled to clear denominators and divided by the gcd of its
// components). The basis has dimension Cols - Rank; an empty slice means the
// kernel is trivial.
func (m *Matrix) KernelBasis() []Vector {
	a, pivots := rref(m)
	isPivot := make(map[int]int, len(pivots)) // column -> pivot row
	for r, c := range pivots {
		isPivot[c] = r
	}
	var basis []Vector
	for c := 0; c < m.cols; c++ {
		if _, ok := isPivot[c]; ok {
			continue
		}
		// Free column c: back-substitute with x[c] = 1.
		rat := make([]*big.Rat, m.cols)
		for j := range rat {
			rat[j] = new(big.Rat)
		}
		rat[c].SetInt64(1)
		for pc, pr := range isPivot {
			// Pivot variable pc = -a[pr][c] * x[c].
			rat[pc].Neg(a[pr][c])
		}
		basis = append(basis, ratToPrimitiveInt(rat))
	}
	return basis
}

// ratToPrimitiveInt clears denominators with the lcm and divides by the gcd
// of the numerators, producing a primitive integer vector in the same
// direction.
func ratToPrimitiveInt(rat []*big.Rat) Vector {
	lcm := big.NewInt(1)
	t := new(big.Int)
	for _, q := range rat {
		d := q.Denom()
		g := new(big.Int).GCD(nil, nil, lcm, d)
		lcm.Mul(lcm, t.Quo(d, g))
	}
	out := NewVector(len(rat))
	gcd := new(big.Int)
	for i, q := range rat {
		out[i].Mul(q.Num(), t.Quo(lcm, q.Denom()))
		if out[i].Sign() != 0 {
			gcd.GCD(nil, nil, gcd, t.Abs(out[i]))
		}
	}
	if gcd.Sign() != 0 && gcd.Cmp(big.NewInt(1)) != 0 {
		for i := range out {
			out[i].Quo(out[i], gcd)
		}
	}
	return out
}

// SolveParticular returns one rational solution x of m*x = b, converted to a
// Vector if it is integral, together with true; if the system is
// inconsistent it returns (nil, false, nil). A non-integral rational solution
// is an error: the systems this package serves (node-count systems) always
// admit integral particular solutions when consistent, so a fractional
// result indicates a malformed input matrix.
func (m *Matrix) SolveParticular(b Vector) (Vector, bool, error) {
	if len(b) != m.rows {
		return nil, false, fmt.Errorf("linalg: rhs length %d, want %d", len(b), m.rows)
	}
	// Augment [m | b] and reduce.
	aug, err := NewMatrix(m.rows, m.cols+1)
	if err != nil {
		return nil, false, err
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			aug.Set(i, j, m.a[i*m.cols+j])
		}
		aug.Set(i, m.cols, b[i])
	}
	a, pivots := rref(aug)
	// Inconsistent iff a pivot lands in the augmented column.
	for _, c := range pivots {
		if c == m.cols {
			return nil, false, nil
		}
	}
	rat := make([]*big.Rat, m.cols)
	for j := range rat {
		rat[j] = new(big.Rat)
	}
	for r, c := range pivots {
		rat[c].Set(a[r][m.cols])
	}
	out := NewVector(m.cols)
	for i, q := range rat {
		if !q.IsInt() {
			return nil, false, fmt.Errorf("linalg: non-integral particular solution component %d = %s", i, q)
		}
		out[i].Set(q.Num())
	}
	return out, true, nil
}
