package graph_test

import (
	"math/rand"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/reference"
)

// buildRandom constructs a random connected graph directly with the
// Builder (package graph cannot import gen), returning it together with
// its edge list so tests can rebuild from scratch.
func buildRandom(t *testing.T, n, m int, seed int64) (*graph.Graph, []graph.Edge) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ u, v int }
	seen := map[pair]bool{}
	var edges []graph.Edge
	add := func(u, v int) {
		if u == v {
			return
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if seen[pair{a, b}] {
			return
		}
		seen[pair{a, b}] = true
		edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: graph.Weight(rng.Intn(9) + 1)})
	}
	for i := 1; i < n; i++ {
		add(rng.Intn(i), i)
	}
	for len(edges) < m {
		add(rng.Intn(n), rng.Intn(n))
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.W)
	}
	return reference.MustBuild(b), edges
}

// TestWeightBatchEqualsRebuild is the core in-place patching contract:
// applying a batch of weight updates incrementally yields a graph
// byte-identical to rebuilding from the original edge list with the new
// weights.
func TestWeightBatchEqualsRebuild(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g, edges := buildRandom(t, 30, 70, seed)
		rng := rand.New(rand.NewSource(seed * 101))
		var batch graph.Batch
		for k := 0; k < 15; k++ {
			e := graph.EdgeID(rng.Intn(g.M()))
			w := graph.Weight(rng.Intn(50) + 1)
			batch.Weights = append(batch.Weights, graph.WeightUpdate{Edge: e, W: w})
		}
		inc := g.Clone()
		if err := inc.ApplyBatch(batch); err != nil {
			t.Fatalf("seed %d: ApplyBatch: %v", seed, err)
		}
		if err := reference.Validate(inc); err != nil {
			t.Fatalf("seed %d: patched graph invalid: %v", seed, err)
		}
		// From-scratch rebuild: same insertion order, final weights.
		final := make([]graph.Weight, g.M())
		for e := range final {
			final[e] = g.Weight(graph.EdgeID(e))
		}
		for _, wu := range batch.Weights {
			final[wu.Edge] = wu.W
		}
		b := graph.NewBuilder(g.N())
		for e, rec := range edges {
			b.AddEdge(rec.U, rec.V, final[e])
		}
		rebuilt := reference.MustBuild(b)
		if err := reference.Equal(inc, rebuilt); err != nil {
			t.Fatalf("seed %d: incremental != rebuild: %v", seed, err)
		}
		// The original clone source must be untouched.
		w0 := edges[batch.Weights[0].Edge].W
		if g.Weight(batch.Weights[0].Edge) != w0 {
			t.Fatalf("seed %d: Clone shares storage with its source", seed)
		}
	}
}

// TestDeletionPatchesInPlace removes random non-bridge edges one at a
// time and checks every structural invariant survives the swap-remove,
// including the far ports the router depends on.
func TestDeletionPatchesInPlace(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		g, _ := buildRandom(t, 25, 60, seed+500)
		rng := rand.New(rand.NewSource(seed))
		deleted := 0
		for attempts := 0; attempts < 40 && g.M() > g.N()-1; attempts++ {
			e := graph.EdgeID(rng.Intn(g.M()))
			before := g.Clone()
			if err := g.ApplyBatch(graph.Batch{Deletions: []graph.EdgeID{e}}); err != nil {
				// Bridge: the graph must be left exactly as it was.
				if eq := reference.Equal(g, before); eq != nil {
					t.Fatalf("seed %d: failed deletion mutated the graph: %v", seed, eq)
				}
				continue
			}
			deleted++
			if err := reference.Validate(g); err != nil {
				t.Fatalf("seed %d after %d deletions: %v", seed, deleted, err)
			}
			if !reference.Connected(g) {
				t.Fatalf("seed %d: deletion disconnected the graph", seed)
			}
			for u := 0; u < g.N(); u++ {
				for p := 0; p < g.Degree(graph.NodeID(u)); p++ {
					h := g.HalfAt(graph.NodeID(u), p)
					dp := g.DstPort(graph.NodeID(u), p)
					if got := g.HalfAt(h.To, dp); got.Edge != h.Edge || got.To != graph.NodeID(u) {
						t.Fatalf("seed %d: far port of (%d,%d) broken after deletion", seed, u, p)
					}
				}
			}
		}
		if deleted == 0 {
			t.Fatalf("seed %d: no deletion exercised", seed)
		}
	}
}

// TestBatchAtomicity: an invalid batch (here: one that disconnects the
// graph) must leave the graph untouched, including its weights.
func TestBatchAtomicity(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(3).AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(0, 2, 3))
	before := g.Clone()
	err := g.ApplyBatch(graph.Batch{
		Weights:   []graph.WeightUpdate{{Edge: 0, W: 9}},
		Deletions: []graph.EdgeID{0, 1}, // leaves fewer than n-1 edges
	})
	if err == nil {
		t.Fatal("disconnecting batch accepted")
	}
	if eq := reference.Equal(g, before); eq != nil {
		t.Fatalf("failed batch mutated the graph: %v", eq)
	}
	if err := g.ApplyBatch(graph.Batch{Weights: []graph.WeightUpdate{{Edge: 99, W: 1}}}); err == nil {
		t.Fatal("out-of-range weight update accepted")
	}
	if err := g.ApplyBatch(graph.Batch{Weights: []graph.WeightUpdate{{Edge: 0, W: 0}}}); err == nil {
		t.Fatal("non-positive weight accepted")
	}
	if err := g.ApplyBatch(graph.Batch{Deletions: []graph.EdgeID{2, 2}}); err == nil {
		t.Fatal("duplicate deletion accepted")
	}
}

// TestBatchMixed applies weights and deletions together and checks the
// documented order (weights first, then deletions) and ID renumbering
// (the last edge takes the deleted ID).
func TestBatchMixed(t *testing.T) {
	// Square with a diagonal: 0-1(1), 1-2(2), 2-3(3), 3-0(4), 0-2(5).
	g := reference.MustBuild(graph.NewBuilder(4).
		AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).
		AddEdge(3, 0, 4).AddEdge(0, 2, 5))
	err := g.ApplyBatch(graph.Batch{
		Weights:   []graph.WeightUpdate{{Edge: 1, W: 7}},
		Deletions: []graph.EdgeID{1}, // delete the edge just reweighted
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 4 {
		t.Fatalf("M = %d, want 4", g.M())
	}
	// Edge 4 (0-2, w 5) must have taken ID 1.
	rec := g.Edge(1)
	if !(rec.U == 0 && rec.V == 2 && rec.W == 5) {
		t.Fatalf("renumbered edge 1 = %+v, want 0-2 w5", rec)
	}
	if err := reference.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !reference.Connected(g) {
		t.Fatal("disconnected")
	}
}
