package graph_test

import (
	"fmt"
	"testing"

	"mstadvice/internal/graph"
)

// TestBuildDuplicateVariants exercises the sort-and-dedup validation:
// duplicates must be rejected however they are phrased.
func TestBuildDuplicateVariants(t *testing.T) {
	cases := [][][3]int{
		{{0, 1, 1}, {0, 1, 2}},            // same orientation
		{{0, 1, 1}, {1, 0, 2}},            // reversed
		{{2, 3, 1}, {0, 1, 1}, {3, 2, 5}}, // reversed, later
	}
	for ci, edges := range cases {
		b := graph.NewBuilder(4)
		for _, e := range edges {
			b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), graph.Weight(e[2]))
		}
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: duplicate edge not rejected", ci)
		}
	}
	// A high-degree hub names its duplicate neighbour exactly.
	const leaves = 40
	b := graph.NewBuilder(leaves + 1)
	for v := 1; v <= leaves; v++ {
		b.AddEdge(0, graph.NodeID(v), graph.Weight(v))
	}
	b.AddEdge(graph.NodeID(leaves/2), 0, 1)
	_, err := b.Build()
	if want := fmt.Sprintf("graph: duplicate edge 0-%d", leaves/2); err == nil || err.Error() != want {
		t.Errorf("hub duplicate: got %v, want %q", err, want)
	}
}
