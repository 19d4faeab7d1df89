package core_test

import (
	"fmt"

	"anondyn/internal/core"
)

// The exact lower bound as a table — the paper's Theorem 1.
func ExampleLowerBoundRounds() {
	for t := 1; t <= 5; t++ {
		n := core.MinSizeForRounds(t)
		fmt.Printf("n >= %d sustains %d indistinguishable rounds\n", n, t)
	}
	// Output:
	// n >= 1 sustains 1 indistinguishable rounds
	// n >= 4 sustains 2 indistinguishable rounds
	// n >= 13 sustains 3 indistinguishable rounds
	// n >= 40 sustains 4 indistinguishable rounds
	// n >= 121 sustains 5 indistinguishable rounds
}

// The Lemma 5 adversary in action: two networks, one leader view.
func ExampleWorstCasePair() {
	pair, err := core.WorstCasePair(4)
	if err != nil {
		fmt.Println(err)
		return
	}
	va, _ := pair.M.LeaderView(pair.Rounds)
	vb, _ := pair.MPrime.LeaderView(pair.Rounds)
	fmt.Printf("sizes %d and %d, views equal through %d rounds: %v\n",
		pair.M.W(), pair.MPrime.W(), pair.Rounds, va.Equal(vb))
	// Output: sizes 4 and 5, views equal through 2 rounds: true
}

// The optimal counter terminates exactly at the bound on the worst case.
func ExampleCountOnMultigraph() {
	res, err := core.WorstCaseCountRounds(13)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("counted %d in %d rounds (bound %d)\n",
		res.Count, res.Rounds, core.LowerBoundRounds(13))
	// Output: counted 13 in 4 rounds (bound 4)
}
