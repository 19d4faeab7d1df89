package kernel_test

import (
	"fmt"

	"anondyn/internal/kernel"
	"anondyn/internal/multigraph"
)

// The paper's Figure 3 system of equations, solved: with m_0 = [2 2] the
// consistent sizes are 2, 3 and 4.
func ExampleSolveCountInterval() {
	m, err := multigraph.FromHistoryCounts(2, 1, []int{0, 0, 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	view, err := m.LeaderView(1)
	if err != nil {
		fmt.Println(err)
		return
	}
	iv, err := kernel.SolveCountInterval(view)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(iv)
	// Output: [2,4]
}

// The kernel vector k_1 as printed in the paper, with its Lemma 4 sums.
func ExampleClosedFormKernel() {
	k1 := kernel.ClosedFormKernel(1)
	fmt.Println(k1)
	fmt.Println(k1.Sum(), k1.SumPositive(), k1.SumNegative())
	// Output:
	// [1 1 -1 1 1 -1 -1 -1 1]
	// 1 5 4
}

// M_0 is the 2x3 matrix of the paper's Equation 2; its kernel is spanned
// by k_0 = [1 1 -1] (elimination returns the basis vector up to sign).
func ExampleMatrix() {
	m0, err := kernel.Matrix(0, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(m0)
	basis := m0.KernelBasis()
	fmt.Println(basis[0].Equal(kernel.ClosedFormKernel(0)) || basis[0].Neg().Equal(kernel.ClosedFormKernel(0)))
	// Output:
	// [1 0 1]
	// [0 1 1]
	// true
}

// The incremental solver tracks the interval as observations stream in.
func ExampleIncrementalSolver() {
	m, err := multigraph.FromHistoryCounts(2, 2, []int{0, 0, 1, 0, 0, 1, 1, 1, 0})
	if err != nil {
		fmt.Println(err)
		return
	}
	stream, err := m.NewObservationStream()
	if err != nil {
		fmt.Println(err)
		return
	}
	solver := kernel.NewIncrementalSolver()
	for r := 0; r < 2; r++ {
		entries, err := stream.Next()
		if err != nil {
			fmt.Println(err)
			return
		}
		iv, err := solver.AddRoundIndexed(entries)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Println(iv)
	}
	// Output:
	// [3,6]
	// [4,5]
}
