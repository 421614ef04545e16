// Tradeoff sweeps every advising scheme over growing torus-like grids and
// prints the knowledge-versus-time tradeoff that motivates the paper: how
// many bits of oracle advice buy how many saved communication rounds.
//
//	go run ./examples/tradeoff
package main

import (
	"fmt"
	"log"

	"mstadvice"
)

func main() {
	fmt.Println("advice bits (max/avg) and rounds per scheme on square grids")
	fmt.Println()
	fmt.Printf("%-8s %-6s %-22s %-10s %-14s\n", "scheme", "n", "advice max/avg [bits]", "rounds", "max msg [bits]")
	for _, side := range []int{4, 8, 16, 24} {
		g, err := mstadvice.GenSeeded("grid", side*side, uint64(side), mstadvice.GenSeededOptions{})
		if err != nil {
			log.Fatal(err)
		}
		for _, s := range mstadvice.Schemes() {
			res, err := mstadvice.Run(s, g, 0, mstadvice.RunOptions{})
			if err != nil {
				log.Fatal(err)
			}
			if !res.Verified {
				log.Fatalf("%s on %d-grid: %v", s.Name(), side, res.VerifyErr)
			}
			fmt.Printf("%-8s %-6d %3d / %-16.2f %-10d %-14d\n",
				s.Name(), res.N, res.Advice.MaxBits, res.Advice.AvgBits, res.Rounds, res.MaxMsgBits)
		}
		fmt.Println()
	}
	fmt.Println("reading guide:")
	fmt.Println("  trivial     ⌈log n⌉ bits, zero rounds — the whole answer is in the advice")
	fmt.Println("  oneround    O(1) bits on average, one round — Theorem 2")
	fmt.Println("  core        ≤ 12 bits, Θ(log n) rounds — Theorem 3, the paper's headline")
	fmt.Println("  localgather zero bits, Θ(diameter) rounds, but message sizes explode")
	fmt.Println("  noadvice    zero bits and CONGEST-size messages, but poly(n) rounds")
}
