// Chain: Corollary 1 as a running distributed system.
//
// The paper's D + Ω(log |V|) bound composes a static chain with the
// worst-case 𝒢(PD)₂ core. This example builds that exact network — leader,
// chain, two labeled relays, n anonymous nodes — and runs the
// full-information counting protocol on the sharded worker-pool engine:
// relays observe, chain nodes forward, and the leader re-solves its linear
// system every round until exactly one network size remains.
//
// Run with:
//
//	go run ./examples/chain
package main

import (
	"fmt"
	"log"

	"anondyn/internal/chainnet"
	"anondyn/internal/core"
	"anondyn/internal/dynet"
	"anondyn/internal/runtime"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Printf("%6s %7s %7s %14s %16s\n", "|W|", "chain", "delay", "measured", "delay+bound")
	for _, tc := range []struct{ n, chainLen int }{
		{4, 0}, {4, 4}, {13, 2}, {40, 6}, {121, 10},
	} {
		nw, err := chainnet.Build(tc.n, tc.chainLen)
		if err != nil {
			return err
		}
		// Confirm the composed network's shape: a PD_(chain+2) dynamic
		// graph, connected every round.
		horizon := nw.Schedule.Horizon()
		h, err := dynet.PDClass(nw.Net, nw.Leader, horizon)
		if err != nil {
			return err
		}
		if h != tc.chainLen+2 {
			return fmt.Errorf("PD class %d, want %d", h, tc.chainLen+2)
		}
		bound := core.LowerBoundRounds(tc.n)
		res, err := chainnet.RunCount(nw, bound+nw.Delay()+5, runtime.RunSharded)
		if err != nil {
			return err
		}
		if res.Count != tc.n {
			return fmt.Errorf("counted %d, want %d", res.Count, tc.n)
		}
		fmt.Printf("%6d %7d %7d %14d %16d\n",
			tc.n, tc.chainLen, nw.Delay(), res.Rounds, nw.Delay()+bound)
	}
	fmt.Println("\nmeasured = delay + ⌊log₃(2n+1)⌋ + 1 on every row: the chain adds its")
	fmt.Println("latency D-term and anonymity adds its logarithmic surcharge, exactly as")
	fmt.Println("Corollary 1 predicts.")
	return nil
}
