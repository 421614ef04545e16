package mstadvice_test

import (
	"fmt"

	"mstadvice"
)

// ExampleRun demonstrates the paper's main scheme end to end on a small
// hand-built network.
func ExampleRun() {
	g, err := mstadvice.NewBuilder(4).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 2).
		AddEdge(2, 3, 3).
		AddEdge(3, 0, 4).
		Build()
	if err != nil {
		panic(err)
	}
	res, err := mstadvice.Run(mstadvice.ConstantAdvice(), g, 0, mstadvice.RunOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("verified:", res.Verified)
	fmt.Println("root:", res.Root)
	fmt.Println("max advice bits:", res.Advice.MaxBits)
	// Output:
	// verified: true
	// root: 0
	// max advice bits: 4
}

// ExampleTrivial shows the zero-round scheme: the whole answer rides in
// ⌈log n⌉ advice bits.
func ExampleTrivial() {
	g, _ := mstadvice.NewBuilder(3).
		AddEdge(0, 1, 5).
		AddEdge(1, 2, 3).
		AddEdge(0, 2, 8).
		Build()
	res, _ := mstadvice.Run(mstadvice.Trivial(), g, 2, mstadvice.RunOptions{})
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("messages:", res.Messages)
	fmt.Println("verified:", res.Verified)
	// Output:
	// rounds: 0
	// messages: 0
	// verified: true
}

// ExampleSchemeByName looks schemes up dynamically, as the CLI does.
func ExampleSchemeByName() {
	s, ok := mstadvice.SchemeByName("oneround")
	fmt.Println(ok, s.Name())
	_, ok = mstadvice.SchemeByName("no-such-scheme")
	fmt.Println(ok)
	// Output:
	// true oneround
	// false
}

// ExampleConstantAdviceRounds shows the exact decoder schedule against
// the paper's 9·⌈log n⌉ bound.
func ExampleConstantAdviceRounds() {
	exact, paper := mstadvice.ConstantAdviceRounds(1024)
	fmt.Println(exact, "<=", paper)
	// Output:
	// 80 <= 90
}

// ExampleNewLowerBoundFamily runs Theorem 1's pigeonhole experiment.
func ExampleNewLowerBoundFamily() {
	fam, err := mstadvice.NewLowerBoundFamily(12, 4)
	if err != nil {
		panic(err)
	}
	for _, m := range []int{0, 2, 3} {
		res := fam.Experiment(m)
		fmt.Printf("m=%d served %d/%d\n", m, res.Served, res.K)
	}
	// Output:
	// m=0 served 1/8
	// m=2 served 4/8
	// m=3 served 8/8
}

// ExampleGenSeeded generates a reproducible experiment graph: the
// random family has 3n edges, and one (family, n, seed) names one graph.
func ExampleGenSeeded() {
	g, err := mstadvice.GenSeeded("random", 10, 7, mstadvice.GenSeededOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(g.N(), g.M())
	// Output:
	// 10 30
}

// ExampleRun_async replays the main scheme's unmodified decoder on an
// asynchronous network: seeded per-message latencies under the
// α-synchronizer, whose overhead is accounted separately while the
// payload traffic stays byte-comparable to the synchronous run.
func ExampleRun_async() {
	g, err := mstadvice.GenSeeded("random", 64, 9, mstadvice.GenSeededOptions{})
	if err != nil {
		panic(err)
	}
	syncRes, err := mstadvice.Run(mstadvice.ConstantAdvice(), g, 0, mstadvice.RunOptions{})
	if err != nil {
		panic(err)
	}
	asyncRes, err := mstadvice.Run(mstadvice.ConstantAdvice(), g, 0, mstadvice.RunOptions{
		Async:   true,
		Latency: mstadvice.UniformLatency{Seed: 7, Min: 1, Max: 4},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("verified:", asyncRes.Verified)
	fmt.Println("same simulated rounds:", asyncRes.Pulses == syncRes.Rounds)
	fmt.Println("same payload traffic:", asyncRes.Messages == syncRes.Messages && asyncRes.TotalBits == syncRes.TotalBits)
	fmt.Println("synchronizer overhead booked separately:", asyncRes.SyncMessages > 0)
	// Output:
	// verified: true
	// same simulated rounds: true
	// same payload traffic: true
	// synchronizer overhead booked separately: true
}

// ExampleDecomposeOpt streams the §2.2 Borůvka decomposition of a
// 4-cycle: every node selects its lightest edge in phase 1, which
// merges them all, and Run's window of phases 1..TotalPhases+1 ends at
// the spanning fragment. One worker visits the fragments in order.
// FragOf reads the contraction tower without a Run.
func ExampleDecomposeOpt() {
	g, err := mstadvice.NewBuilder(4).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 2).
		AddEdge(2, 3, 3).
		AddEdge(3, 0, 4).
		Build()
	if err != nil {
		panic(err)
	}
	d, err := mstadvice.DecomposeOpt(g, 0, mstadvice.BoruvkaOptions{Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("fragments at phase 2:", d.FragOf(2))
	err = d.Run(1, d.TotalPhases+1, func(_ int, v mstadvice.DecompositionVisit) error {
		fmt.Printf("phase %d fragment %d: BFS %v", v.Phase, v.Frag, v.BFS)
		if v.HasSel {
			fmt.Printf(", selects edge %d", v.Sel.Edge)
		}
		fmt.Println()
		return nil
	})
	if err != nil {
		panic(err)
	}
	// Run rooted the tree at node 0 before its first visit.
	fmt.Println("parent ports:", d.ParentPort)
	// Output:
	// fragments at phase 2: [0 0 0 0]
	// phase 1 fragment 0: BFS [0], selects edge 0
	// phase 1 fragment 1: BFS [1], selects edge 0
	// phase 1 fragment 2: BFS [2], selects edge 1
	// phase 1 fragment 3: BFS [3], selects edge 2
	// phase 2 fragment 0: BFS [0 1 2 3]
	// parent ports: [-1 0 0 0]
}
