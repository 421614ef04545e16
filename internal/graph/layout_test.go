package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// TestRecordSizes pins the padding-free layout DESIGN.md §2.1 budgets:
// the adjacency stores a 4-byte edge ID per port, and an edge record is
// 24 bytes.
func TestRecordSizes(t *testing.T) {
	var g Graph
	if got := unsafe.Sizeof(g.adj[0]); got != 4 {
		t.Errorf("sizeof(adjacency entry) = %d, want 4", got)
	}
	if got := unsafe.Sizeof(Edge{}); got != 24 {
		t.Errorf("sizeof(Edge) = %d, want 24", got)
	}
}

// TestSizeBound checks that every constructor rejects node and edge
// counts beyond the int32 identifiers before allocating storage for them.
func TestSizeBound(t *testing.T) {
	huge := math.MaxInt32 + 1
	cases := map[string]func() error{
		"FromEdgeList n = 2^31": func() error {
			_, err := FromEdgeList(huge, nil, nil, 0)
			return err
		},
		"FromEdgeList n < 0": func() error {
			_, err := FromEdgeList(-1, nil, nil, 0)
			return err
		},
		"Builder n = 2^31": func() error {
			_, err := NewBuilder(huge).AddEdge(0, 1, 1).Build()
			return err
		},
		"Builder n < 0": func() error {
			_, err := NewBuilder(-1).Build()
			return err
		},
		"m = 2^30 (2m = 2^31)": func() error { return CheckSize(2, 1<<30) },
		"m = 2^31":             func() error { return CheckSize(2, huge) },
	}
	for name, run := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: allocated %d bytes before failing", name, grew)
		}
	}
	if err := CheckSize(math.MaxInt32, math.MaxInt32/2); err != nil {
		t.Errorf("largest addressable graph rejected: %v", err)
	}
}

// TestCloneSharesNoStorage patches a clone and checks the original is
// untouched, then checks no backing array — the degree table included —
// is shared.
func TestCloneSharesNoStorage(t *testing.T) {
	build := func() *Graph {
		g, err := NewBuilder(4).
			AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).AddEdge(3, 0, 4).AddEdge(0, 2, 5).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	same := func(a, b *Graph) bool {
		return slices.Equal(a.adj, b.adj) && slices.Equal(a.off, b.off) && slices.Equal(a.deg, b.deg) &&
			slices.Equal(a.edges, b.edges) && slices.Equal(a.ids, b.ids)
	}
	g, pristine := build(), build()
	c := g.Clone()
	if !same(g, c) {
		t.Fatal("clone differs")
	}
	if err := c.ApplyBatch(Batch{
		Weights:   []WeightUpdate{{Edge: 1, W: 9}},
		Deletions: []EdgeID{0},
	}); err != nil {
		t.Fatal(err)
	}
	if !same(g, pristine) {
		t.Fatal("patching the clone changed the original")
	}
	apart := func(name string, a, b unsafe.Pointer) {
		if a == b {
			t.Errorf("clone shares %s", name)
		}
	}
	apart("adj", unsafe.Pointer(&g.adj[0]), unsafe.Pointer(&c.adj[0]))
	apart("off", unsafe.Pointer(&g.off[0]), unsafe.Pointer(&c.off[0]))
	apart("deg", unsafe.Pointer(&g.deg[0]), unsafe.Pointer(&c.deg[0]))
	apart("edges", unsafe.Pointer(&g.edges[0]), unsafe.Pointer(&c.edges[0]))
	apart("ids", unsafe.Pointer(&g.ids[0]), unsafe.Pointer(&c.ids[0]))
}

// TestPortCollisionAcrossWorkers plants two edges naming one port, at
// opposite ends of a list long enough to split across workers. Either
// edge may win the parallel claim, yet the error must name the later
// edge every time, and no slot may be written twice (run under -race).
func TestPortCollisionAcrossWorkers(t *testing.T) {
	const m = 20_000
	b := NewBuilder(m + 1)
	for u := 0; u < m; u++ {
		b.AddEdge(NodeID(u), NodeID(u+1), Weight(u+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("graph: edge %d claims port 0 of node 0, which an earlier edge holds", m-1)
	for trial := 0; trial < 5; trial++ {
		edges := slices.Clone(g.Edges())
		edges[m-1] = Edge{U: 0, V: m, PU: 0, PV: 0, W: 1}
		_, err := FromEdgeList(m+1, nil, edges, 4)
		if err == nil || err.Error() != want {
			t.Fatalf("trial %d: got %v, want %q", trial, err, want)
		}
	}
}
