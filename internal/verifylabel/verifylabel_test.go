package verifylabel

import (
	"math/rand"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/mst"
	"mstadvice/internal/reference"
	"mstadvice/internal/sim"
)

// seeded builds the named seeded family, failing the test on an error.
func seeded(tb testing.TB, family string, n int, seed uint64, w gen.WeightMode) *graph.Graph {
	tb.Helper()
	g, err := gen.BuildSeeded(family, n, seed, gen.SeededOptions{Weights: w})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func treeOutput(t *testing.T, g *graph.Graph, root graph.NodeID) []int {
	t.Helper()
	tree, err := mst.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := mst.Root(g, tree, root)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// Completeness: honest outputs with honest labels are accepted by every
// node, across families and weight modes.
func TestCompleteness(t *testing.T) {
	for _, fam := range gen.Names() {
		for _, n := range []int{2, 9, 40} {
			rng := rand.New(rand.NewSource(int64(n)))
			g := seeded(t, fam, n, uint64(int64(n)), gen.WeightsDistinct)
			pp := treeOutput(t, g, graph.NodeID(rng.Intn(g.N())))
			labels, err := Assign(g, pp)
			if err != nil {
				t.Fatal(err)
			}
			ok, verdicts, err := Check(g, pp, labels)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s n=%d: honest proof rejected: %v", fam, n, verdicts)
			}
		}
	}
}

// Soundness against corrupted labels: flipping any single label field
// must make at least one node reject.
func TestSoundnessLabelCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := seeded(t, "random", 20, 7, gen.WeightsDistinct)
	pp := treeOutput(t, g, 0)
	for trial := 0; trial < 20; trial++ {
		labels, err := Assign(g, pp)
		if err != nil {
			t.Fatal(err)
		}
		u := rng.Intn(g.N())
		if rng.Intn(2) == 0 {
			labels[u].Depth += 1 + rng.Intn(3)
		} else {
			labels[u].RootID += 1 + rng.Int63n(5)
		}
		ok, _, err := Check(g, pp, labels)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("trial %d: corrupted label accepted", trial)
		}
	}
}

// Soundness against corrupted outputs, under honest labels for the true
// tree: re-pointing one node's parent to another neighbour is accepted
// exactly when that neighbour sits one level higher (depth d−1). Such a
// re-pointing yields another spanning tree with the same (root, depth)
// certificate, which the scheme rightly accepts — it certifies a
// spanning tree, not minimality. Every other re-pointing breaks the
// depth chain and must be rejected.
func TestSoundnessOutputCorruption(t *testing.T) {
	accepted, rejected := 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		g := seeded(t, "random", 20, seed, gen.WeightsDistinct)
		pp := treeOutput(t, g, 0)
		labels, err := Assign(g, pp)
		if err != nil {
			t.Fatal(err)
		}
		for u := 1; u < g.N(); u++ { // not the root
			uid := graph.NodeID(u)
			for alt := 0; alt < g.Degree(uid); alt++ {
				if alt == pp[u] {
					continue
				}
				bad := append([]int(nil), pp...)
				bad[u] = alt
				ok, _, err := Check(g, bad, labels)
				if err != nil {
					t.Fatal(err)
				}
				want := labels[g.HalfAt(uid, alt).To].Depth == labels[u].Depth-1
				if ok != want {
					t.Fatalf("seed %d: node %d re-pointed to port %d: accepted=%v, want %v", seed, u, alt, ok, want)
				}
				if ok {
					accepted++
				} else {
					rejected++
				}
			}
		}
	}
	t.Logf("accepted %d of %d re-pointings", accepted, accepted+rejected)
	if accepted == 0 || rejected == 0 {
		t.Fatalf("accepted %d, rejected %d re-pointings: both cases must occur", accepted, rejected)
	}
}

// Two disjoint consistent trees must be caught by the root-ID agreement
// check (the classic counterexample to parent-only verification).
func TestSoundnessTwoTrees(t *testing.T) {
	// Path 0-1-2-3: claim 0 and 3 are both roots with 1 under 0 and 2
	// under 3, and give each half consistent labels.
	g := reference.MustBuild(graph.NewBuilder(4).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 1).
		AddEdge(2, 3, 1))
	pp := []int{-1, 0, 1, -1}
	// Forged labels: left tree rooted at ID(0), right tree at ID(3).
	labels := []Label{
		{RootID: g.ID(0), Depth: 0},
		{RootID: g.ID(0), Depth: 1},
		{RootID: g.ID(3), Depth: 1},
		{RootID: g.ID(3), Depth: 0},
	}
	ok, verdicts, err := Check(g, pp, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("two disjoint trees accepted: %v", verdicts)
	}
}

// Assign rejects outputs that are not spanning trees.
func TestAssignRejects(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(3).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 1).
		AddEdge(0, 2, 1))
	if _, err := Assign(g, []int{-1, -1, 0}); err == nil {
		t.Error("two roots accepted")
	}
	if _, err := Assign(g, []int{0, 0, 0}); err == nil {
		t.Error("rootless cycle accepted")
	}
}

// End-to-end: verify the Theorem 3 scheme's distributed output with the
// one-round checker — construction and verification compose.
func TestVerifiesCoreOutput(t *testing.T) {
	g := seeded(t, "random", 40, 9, gen.WeightsDistinct)
	res, err := advice.Run(core.Scheme{}, g, 5, sim.Options{})
	if err != nil || !res.Verified {
		t.Fatalf("%v %v", err, res)
	}
	labels, err := Assign(g, res.ParentPorts)
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := Check(g, res.ParentPorts, labels)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("one-round verifier rejected the core scheme's output")
	}
}
