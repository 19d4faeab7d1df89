// Adaptive: the omniscient adversary at work.
//
// The paper's adversary "has access to nodes' local variables" and picks
// each round's topology to maximally hinder the algorithm. This example
// runs a flood against two adversaries on the same node set:
//
//   - a fair random-churn adversary — the flood finishes in a few rounds;
//   - the adaptive delaying adversary, which inspects each round's
//     broadcasts, keeps the informed and uninformed nodes in separate
//     cliques, and admits exactly one crossing edge: the flood crawls, one
//     node per round, even though every snapshot has diameter <= 3.
//
// Run with:
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// floodProc is a minimal flooding process broadcasting token possession.
type floodProc struct {
	has bool
}

func (f *floodProc) Send(int) runtime.Message { return f.has }

func (f *floodProc) Receive(_ int, msgs []runtime.Message) {
	for _, m := range msgs {
		if b, ok := m.(bool); ok && b {
			f.has = true
			return
		}
	}
}

// delayer builds the adaptive worst-case topology from the round's
// broadcasts.
func delayer(n int) func(r int, outbox []runtime.Message) *graph.Graph {
	return func(_ int, outbox []runtime.Message) *graph.Graph {
		var informed, uninformed []graph.NodeID
		for v := 0; v < n; v++ {
			if b, ok := outbox[v].(bool); ok && b {
				informed = append(informed, graph.NodeID(v))
			} else {
				uninformed = append(uninformed, graph.NodeID(v))
			}
		}
		g := graph.New(n)
		clique := func(nodes []graph.NodeID) {
			for i := range nodes {
				for j := i + 1; j < len(nodes); j++ {
					_ = g.AddEdge(nodes[i], nodes[j])
				}
			}
		}
		clique(informed)
		clique(uninformed)
		if len(informed) > 0 && len(uninformed) > 0 {
			_ = g.AddEdge(informed[0], uninformed[0])
		}
		return g
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 16
	measure := func(adaptive func(int, []runtime.Message) *graph.Graph, net dynet.Dynamic) (int, error) {
		procs := make([]runtime.Process, n)
		for i := range procs {
			procs[i] = &floodProc{has: i == 0}
		}
		all := func(int) bool {
			for _, p := range procs {
				if !p.(*floodProc).has {
					return false
				}
			}
			return true
		}
		cfg := &runtime.Config{
			Net:       net,
			Adaptive:  adaptive,
			Procs:     procs,
			MaxRounds: 10 * n,
			Stop:      all,
		}
		return runtime.RunSharded(cfg)
	}

	churn, err := dynet.NewTInterval(n, 1, 0.3, 7)
	if err != nil {
		return err
	}
	fair, err := measure(nil, churn)
	if err != nil {
		return err
	}
	worst, err := measure(delayer(n), dynet.NewStatic(graph.Complete(n)))
	if err != nil {
		return err
	}
	fmt.Printf("flood over %d nodes:\n", n)
	fmt.Printf("  fair random churn      : %2d rounds\n", fair)
	fmt.Printf("  omniscient adversary   : %2d rounds (= n-1, one victim per round)\n", worst)
	fmt.Println("\nevery adversarial snapshot is connected with diameter <= 3; the")
	fmt.Println("slowness comes entirely from the adversary reading the nodes' states.")
	return nil
}
