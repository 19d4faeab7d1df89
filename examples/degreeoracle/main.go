// Degreeoracle: the knowledge cliff of the paper's Discussion section.
//
// The same counting problem, the same G(PD)_2 topology class, two models:
//
//   - anonymous broadcast only: the worst-case adversary forces
//     ⌊log₃(2n+1)⌋ + 1 rounds (Theorem 2);
//   - plus a local degree oracle (each node learns |N(v,r)| before
//     sending): an exact count in 2 rounds, at every size.
//
// This example sweeps network sizes and prints both columns side by side.
//
// Run with:
//
//	go run ./examples/degreeoracle
package main

import (
	"fmt"
	"log"

	"anondyn/internal/core"
	"anondyn/internal/counting"
	"anondyn/internal/runtime"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Printf("%8s  %28s  %24s\n", "|W|", "anonymous (worst case) rounds", "with degree oracle")
	for _, n := range []int{3, 9, 27, 81, 243, 729} {
		anon, err := core.WorstCaseCountRounds(n)
		if err != nil {
			return err
		}
		inst, err := counting.RestrictedPD2Instance(n)
		if err != nil {
			return err
		}
		count, rounds, err := counting.OracleCount(inst.Net, inst.Leader, inst.V1, inst.V2, runtime.RunSequential)
		if err != nil {
			return err
		}
		if count != 1+2+n {
			return fmt.Errorf("oracle miscounted: %d for |V|=%d", count, 1+2+n)
		}
		fmt.Printf("%8d  %28d  %24d\n", n, anon.Rounds, rounds)
	}
	fmt.Println("\nanonymous rounds grow as ⌊log₃(2n+1)⌋+1; the oracle column is flat —")
	fmt.Println("one bit of pre-send local knowledge removes the entire cost of anonymity.")
	return nil
}
