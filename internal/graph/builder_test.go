package graph

import (
	"fmt"
	"testing"
)

// TestBuilderGrow checks that a pre-sized builder produces a graph
// identical to an incrementally grown one, including when the edge count
// overflows its reservation.
func TestBuilderGrow(t *testing.T) {
	type e struct {
		u, v NodeID
		w    Weight
	}
	edges := []e{{0, 1, 5}, {1, 2, 3}, {2, 3, 3}, {0, 3, 9}, {1, 3, 1}}
	plain := NewBuilder(4)
	for _, ed := range edges {
		plain.AddEdge(ed.u, ed.v, ed.w)
	}
	want := plain.MustBuild()

	grown := NewBuilder(4).Grow(len(edges))
	for _, ed := range edges {
		grown.AddEdge(ed.u, ed.v, ed.w)
	}
	if err := Equal(want, grown.MustBuild()); err != nil {
		t.Fatalf("grown graph differs: %v", err)
	}

	// The count is a capacity, not a limit: under-reserving must still
	// build the same graph.
	under := NewBuilder(4).Grow(1)
	for _, ed := range edges {
		under.AddEdge(ed.u, ed.v, ed.w)
	}
	if err := Equal(want, under.MustBuild()); err != nil {
		t.Fatalf("under-reserved graph differs: %v", err)
	}

	if _, err := NewBuilder(2).AddEdge(0, 1, 1).Grow(1).Build(); err == nil {
		t.Error("Grow after AddEdge not rejected")
	}
	if _, err := NewBuilder(2).Grow(-1).Build(); err == nil {
		t.Error("negative edge count not rejected")
	}
}

// TestBuildDuplicateVariants exercises the sort-and-dedup validation:
// duplicates must be rejected however they are phrased.
func TestBuildDuplicateVariants(t *testing.T) {
	cases := [][][3]int{
		{{0, 1, 1}, {0, 1, 2}},            // same orientation
		{{0, 1, 1}, {1, 0, 2}},            // reversed
		{{2, 3, 1}, {0, 1, 1}, {3, 2, 5}}, // reversed, later
	}
	for ci, edges := range cases {
		b := NewBuilder(4)
		for _, e := range edges {
			b.AddEdge(NodeID(e[0]), NodeID(e[1]), Weight(e[2]))
		}
		if _, err := b.Build(); err == nil {
			t.Errorf("case %d: duplicate edge not rejected", ci)
		}
	}
	// A high-degree hub names its duplicate neighbour exactly.
	const leaves = 40
	b := NewBuilder(leaves + 1)
	for v := 1; v <= leaves; v++ {
		b.AddEdge(0, NodeID(v), Weight(v))
	}
	b.AddEdge(NodeID(leaves/2), 0, 1)
	_, err := b.Build()
	if want := fmt.Sprintf("graph: duplicate edge 0-%d", leaves/2); err == nil || err.Error() != want {
		t.Errorf("hub duplicate: got %v, want %q", err, want)
	}
}
