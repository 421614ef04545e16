// Verify demonstrates composing construction with distributed
// verification: the 12-bit advising scheme computes the MST, a
// proof-labeling oracle certifies the output with (rootID, depth) labels,
// and one more communication round lets every node check the global tree
// locally — including catching a tampered output.
//
//	go run ./examples/verify
package main

import (
	"fmt"
	"log"

	"mstadvice"
)

func main() {
	g, err := mstadvice.GenSeeded("random", 40, 3, mstadvice.GenSeededOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: construct the MST with 12 bits of advice per node.
	res, err := mstadvice.Run(mstadvice.ConstantAdvice(), g, 0, mstadvice.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constructed MST on n=%d in %d rounds (max advice %d bits)\n",
		res.N, res.Rounds, res.Advice.MaxBits)

	// Step 2: certify and verify distributively in one round.
	labels, err := mstadvice.AssignTreeLabels(g, res.ParentPorts)
	if err != nil {
		log.Fatal(err)
	}
	ok, _, err := mstadvice.VerifyTreeLabels(g, res.ParentPorts, labels)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("honest output accepted by all nodes:", ok)

	// Step 3: tamper with one node's output; someone must notice.
	bad := append([]int(nil), res.ParentPorts...)
	victim := 7
	bad[victim] = (bad[victim] + 1) % g.Degree(mstadvice.NodeID(victim))
	ok, verdicts, err := mstadvice.VerifyTreeLabels(g, bad, labels)
	if err != nil {
		log.Fatal(err)
	}
	rejecting := 0
	for _, v := range verdicts {
		if !v {
			rejecting++
		}
	}
	fmt.Printf("tampered output accepted: %v (%d node(s) rejected)\n", ok, rejecting)
	fmt.Println()
	fmt.Println("the labels certify spanning-tree structure in one round; minimality")
	fmt.Println("verification needs Ω(log² n)-bit labels (Korman-Kutten) and is checked")
	fmt.Println("centrally by the harness instead.")
}
