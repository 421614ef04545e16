// Congest contrasts bandwidth profiles: the no-advice LOCAL-model
// baseline solves MST in diameter time by shipping whole subgraphs, while
// the paper's 12-bit scheme keeps every message polylogarithmic. This is
// the CONGEST-model story behind the paper's upper bounds ("all our
// algorithms send at most O(log n) bits through each edge at each round").
//
//	go run ./examples/congest
package main

import (
	"fmt"
	"log"

	"mstadvice"
)

func main() {
	fmt.Println("bandwidth vs time on a random connected graph (m = 3n)")
	fmt.Println()
	fmt.Printf("%-8s %-12s %-8s %-16s %-16s %-14s\n",
		"n", "scheme", "rounds", "total msg bits", "max msg bits", "B=⌈log n⌉")
	for _, n := range []int{32, 128, 512} {
		g, err := mstadvice.GenSeeded("random", n, uint64(n), mstadvice.GenSeededOptions{})
		if err != nil {
			log.Fatal(err)
		}
		logn := 0
		for 1<<uint(logn) < n {
			logn++
		}
		for _, name := range []string{"core", "localgather", "noadvice"} {
			s, _ := mstadvice.SchemeByName(name)
			res, err := mstadvice.Run(s, g, 0, mstadvice.RunOptions{})
			if err != nil {
				log.Fatal(err)
			}
			if !res.Verified {
				log.Fatalf("%s: %v", name, res.VerifyErr)
			}
			fmt.Printf("%-8d %-12s %-8d %-16d %-16d %-14d\n",
				res.N, name, res.Rounds, res.TotalBits, res.MaxMsgBits, logn)
		}
		fmt.Println()
	}
	fmt.Println("localgather beats everyone on rounds (Θ(D)) but its largest message")
	fmt.Println("carries a constant fraction of the whole graph; core spends Θ(log n)")
	fmt.Println("rounds yet never ships more than O(log² n) bits on an edge.")
}
