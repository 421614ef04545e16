// Quickstart: build a small weighted network by hand, run the paper's
// main (12-bit advice, O(log n) rounds) scheme on it, and print the
// rooted minimum spanning tree each node computed.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mstadvice"
)

func main() {
	// A 6-node network: a cheap ring 0-1-2-3-4-5 with two expensive
	// chords. Ports are assigned in insertion order at each endpoint.
	g, err := mstadvice.NewBuilder(6).
		AddEdge(0, 1, 4).
		AddEdge(1, 2, 2).
		AddEdge(2, 3, 6).
		AddEdge(3, 4, 1).
		AddEdge(4, 5, 3).
		AddEdge(5, 0, 5).
		AddEdge(0, 3, 9).
		AddEdge(1, 4, 8).
		Build()
	if err != nil {
		log.Fatal(err)
	}

	// The oracle sees the whole graph and hands every node at most 12
	// bits; the decoder nodes then reconstruct the MST in O(log n)
	// synchronous rounds knowing only their own ports, weights and advice.
	const root = 0
	res, err := mstadvice.Run(mstadvice.ConstantAdvice(), g, root, mstadvice.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scheme %q on n=%d, m=%d\n", res.Scheme, res.N, res.M)
	fmt.Printf("advice: max %d bits, avg %.2f bits\n", res.Advice.MaxBits, res.Advice.AvgBits)
	exact, paper := mstadvice.ConstantAdviceRounds(res.N)
	fmt.Printf("rounds: %d  (fixed schedule %d, paper bound 9⌈log n⌉ = %d)\n\n", res.Rounds, exact, paper)

	fmt.Println("node  output")
	for u, port := range res.ParentPorts {
		if port == -1 {
			fmt.Printf("  %d   I am the root\n", u)
			continue
		}
		h := g.HalfAt(mstadvice.NodeID(u), port)
		fmt.Printf("  %d   parent via port %d -> node %d (weight %d)\n", u, port, h.To, g.Weight(h.Edge))
	}
	if res.Verified {
		fmt.Println("\nverified: the outputs form exactly the rooted minimum spanning tree")
	} else {
		fmt.Printf("\nverification FAILED: %v\n", res.VerifyErr)
	}
}
