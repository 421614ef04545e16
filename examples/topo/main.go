// Topo demonstrates the advice-problem platform (DESIGN.md §2.8) on its
// second registered problem: topology recognition with advice. The same
// oracle/decoder machinery that computes MSTs hands every node the
// graph's topology class — and the beacon radius trades advice bits
// against rounds exactly like the paper's MST schemes do.
//
//	go run ./examples/topo
package main

import (
	"fmt"
	"log"

	"mstadvice"
)

func main() {
	fmt.Println("registered advice problems:")
	for _, p := range mstadvice.Problems() {
		fmt.Printf("  %-5s canonical scheme %q\n", p.Name(), p.Scheme().Name())
	}
	fmt.Println()

	g, err := mstadvice.GenSeeded("grid", 24*24, 7, mstadvice.GenSeededOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid, n=%d, m=%d — every node must output class %#08x\n\n", g.N(), g.M(), mstadvice.TopoClass(g))

	fmt.Printf("%-14s %-20s %-10s %-10s\n", "scheme", "advice total [bits]", "rounds", "verified")
	for _, s := range []mstadvice.Scheme{
		mstadvice.TopoFlood(0), // one tag at the root, flood everywhere
		mstadvice.TopoFlood(4), // beacons every 5 BFS levels
		mstadvice.TopoDirect(), // the class at every node, zero rounds
	} {
		res, err := mstadvice.Run(s, g, 0, mstadvice.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %-20d %-10d %-10v\n", res.Scheme, res.Advice.TotalBits, res.Rounds, res.Verified)
	}
	fmt.Println()

	// The decoders are engine-agnostic: the same scheme replays on the
	// asynchronous event engine under an adversarial scheduler.
	res, err := mstadvice.Run(mstadvice.TopoFlood(0), g, 0, mstadvice.RunOptions{
		Async:     true,
		Latency:   mstadvice.UniformLatency{Seed: 3, Min: 1, Max: 9},
		Scheduler: mstadvice.SchedulerLIFO(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("async (LIFO adversary): %s, virtual time %d, verified %v\n", res.Output, res.VirtualTime, res.Verified)
	fmt.Println()

	// And the lower bound replays too: k chord positions on a ring are
	// pairwise non-isomorphic but indistinguishable at the target node,
	// so m advice bits serve at most 2^m of them.
	fam, err := mstadvice.NewTopoLowerBoundFamily(48, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lower bound on the %d-cycle, k=%d chord positions:\n", 48, fam.K)
	for m := 0; m <= 3; m++ {
		r := fam.Experiment(m)
		fmt.Printf("  m=%d: served %d/%d (pigeonhole bound %d)\n", m, r.Served, r.K, r.Bound)
	}
}
