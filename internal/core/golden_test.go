package core

import (
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
	"mstadvice/internal/sim"
)

// TestOracleGoldenPath pins the exact advice layout on a hand-computed
// instance: the path 0-1-2-3 with weights 1,2,3, rooted at 0.
//
// Phase 1 (the only packed phase; P = ⌈log log 4⌉ = 1): all four
// singletons are active. Fragment {0} selects edge 0-1 (down, level 0,
// chooser BFS index 0) giving A = 0‖0‖0; {1} selects 0-1 (up, level 1):
// A = 1‖1‖0; {2} selects 1-2 (up, level 0): A = 1‖0‖0; {3} selects 2-3
// (up, level 1): A = 1‖1‖0. Each singleton holds its own three bits.
//
// After phase 1 the graph is a single fragment rooted at the global root,
// so its final string is the all-ones marker "11" (width ⌈log 4⌉ = 2),
// assigned to the first two BFS nodes (0 and 1). Advice layout is
// [final bit]‖[packed bits].
func TestOracleGoldenPath(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(4).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 2).
		AddEdge(2, 3, 3))
	assignment, err := BuildAdvice(g, 0, DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"1000", // final=1 | up=0 level=0 j=0
		"1110", // final=1 | up=1 level=1 j=0
		"0100", // final=0 | up=1 level=0 j=0
		"0110", // final=0 | up=1 level=1 j=0
	}
	for u, w := range want {
		if got := assignment[u].String(); got != w {
			t.Errorf("node %d advice = %q, want %q", u, got, w)
		}
	}
	// And the decoder consumes exactly this layout into the right tree.
	res, err := advice.Run(Scheme{}, g, 0, sim.Options{})
	if err != nil || !res.Verified || res.Root != 0 {
		t.Fatalf("decode failed: %v %+v", err, res)
	}
	for u, wantPort := range []int{-1, 0, 0, 0} {
		if res.ParentPorts[u] != wantPort {
			t.Errorf("node %d parent port = %d, want %d", u, res.ParentPorts[u], wantPort)
		}
	}
}

// TestScale runs the full scheme at n = 4096 (skipped with -short): the
// schedule holds, advice stays at 12 bits, and the engine completes in
// seconds.
func TestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	g := seeded(t, "random", 4096, 1, gen.WeightsDistinct)
	res, err := advice.Run(Scheme{}, g, 100, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Root != 100 {
		t.Fatalf("scale run failed: %v", res.VerifyErr)
	}
	if res.Advice.MaxBits > 12 {
		t.Fatalf("max advice %d", res.Advice.MaxBits)
	}
	exact, paper := RoundBound(g.N())
	if res.Rounds != exact || exact > paper {
		t.Fatalf("rounds %d, schedule %d, paper %d", res.Rounds, exact, paper)
	}
}
