package dissemination_test

import (
	"fmt"

	"anondyn/internal/dissemination"
	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// With unlimited bandwidth, all-to-all token dissemination (token i starts
// at node i) completes within the dynamic diameter: 4 rounds on a static
// 5-node path.
func ExampleRun() {
	net := dynet.NewStatic(graph.Path(5))
	initial := [][]dissemination.Token{{0}, {1}, {2}, {3}, {4}}
	res, err := dissemination.Run(net, initial,
		dissemination.Unlimited, 100, runtime.RunSequential)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Rounds, res.Tokens)
	// Output: 4 5
}
