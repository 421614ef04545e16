package graph

import (
	"fmt"
	"math/rand"
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

// TestIndexAtMatchesReference checks the allocation-free IndexAt against
// a straightforward map-based reference on random multigraph-free
// inputs with heavy weight ties.
func TestIndexAtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(8)
		b := NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) != 0 {
					b.AddEdge(NodeID(u), NodeID(v), Weight(1+rng.Intn(4)))
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			for p := range g.Halves(NodeID(u)) {
				got := g.IndexAt(NodeID(u), p)
				want := indexAtReference(g, NodeID(u), p)
				if got != want {
					t.Fatalf("IndexAt(%d,%d) = %+v, want %+v", u, p, got, want)
				}
			}
		}
	}
}

// indexAtReference is the original map-based implementation, kept as the
// test oracle.
func indexAtReference(g *Graph, u NodeID, port int) Index {
	me := g.Weight(g.Halves(u)[port].Edge)
	seen := map[Weight]bool{}
	x, y := 1, 1
	for p, h := range g.Halves(u) {
		w := g.Weight(h.Edge)
		if w < me && !seen[w] {
			seen[w] = true
			x++
		}
		if w == me && p < port {
			y++
		}
	}
	return Index{x, y}
}

// TestIndexAtZeroAllocs pins the satellite requirement: IndexAt must not
// allocate.
func TestIndexAtZeroAllocs(t *testing.T) {
	g := NewBuilder(5).
		AddEdge(0, 1, 2).AddEdge(0, 2, 1).AddEdge(0, 3, 2).AddEdge(0, 4, 7).
		MustBuild()
	allocs := testing.AllocsPerRun(100, func() {
		for p := 0; p < 4; p++ {
			g.IndexAt(0, p)
		}
	})
	if allocs != 0 {
		t.Fatalf("IndexAt allocates %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkIndexAt is the satellite micro-benchmark; run with -benchmem
// to see the zero allocation count.
func BenchmarkIndexAt(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 256
	bld := NewBuilder(n)
	for u := 1; u < n; u++ {
		bld.AddEdge(NodeID(rng.Intn(u)), NodeID(u), Weight(1+rng.Intn(8)))
	}
	g := bld.MustBuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := NodeID(i % n)
		for p := range g.Halves(u) {
			g.IndexAt(u, p)
		}
	}
}
