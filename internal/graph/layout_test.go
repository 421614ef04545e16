package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
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

// TestReweighted holds Reweighted to its contract on a compact graph
// and on one whose deletions left free ports: a length, endpoint or
// port mismatch is refused; an accepted record list yields a graph
// that shares the CSR and identifiers, owns the records, and answers
// every accessor as a Clone with the same weights does; and patching a
// Clone of the result leaves the result and its source as they were.
func TestReweighted(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	const n = 40
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(NodeID(rng.IntN(v)), NodeID(v), Weight(1+rng.IntN(9)))
	}
	seen := map[[2]NodeID]bool{}
	for _, e := range b.edges {
		seen[[2]NodeID{min(e.U, e.V), max(e.U, e.V)}] = true
	}
	for len(b.edges) < 3*n {
		u, v := NodeID(rng.IntN(n)), NodeID(rng.IntN(n))
		if key := [2]NodeID{min(u, v), max(u, v)}; u != v && !seen[key] {
			seen[key] = true
			b.AddEdge(u, v, Weight(1+rng.IntN(9)))
		}
	}
	compact, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	holed := compact.Clone()
	if err := holed.ApplyBatch(Batch{Deletions: []EdgeID{EdgeID(n + 3), EdgeID(n + 7), EdgeID(2 * n)}}); err != nil {
		t.Fatal(err)
	}
	same := func(a, b *Graph) bool {
		return slices.Equal(a.adj, b.adj) && slices.Equal(a.off, b.off) && slices.Equal(a.deg, b.deg) &&
			slices.Equal(a.edges, b.edges) && slices.Equal(a.ids, b.ids)
	}
	for name, g := range map[string]*Graph{"compact": compact, "after deletions": holed} {
		pristine := g.Clone()
		// A port swap at the node of edge 0's U: the two edges keep their
		// endpoints and exchange ports there.
		u := g.edges[0].U
		p, q := g.Ports(u)[0], g.Ports(u)[1]
		mismatches := map[string]func([]Edge) []Edge{
			"one record fewer": func(es []Edge) []Edge { return es[:len(es)-1] },
			"one record more":  func(es []Edge) []Edge { return append(es, es[0]) },
			"moved endpoint":   func(es []Edge) []Edge { es[3].V = (es[3].V + 1) % n; return es },
			"swapped ports": func(es []Edge) []Edge {
				pu, qu := &es[p].PU, &es[q].PU
				if es[p].V == u {
					pu = &es[p].PV
				}
				if es[q].V == u {
					qu = &es[q].PV
				}
				*pu, *qu = *qu, *pu
				return es
			},
		}
		for what, edit := range mismatches {
			if r, ok := g.Reweighted(edit(slices.Clone(g.edges))); ok || r != nil {
				t.Errorf("%s: %s accepted", name, what)
			}
		}
		edges := slices.Clone(g.edges)
		var batch Batch
		for i := range edges {
			edges[i].W = Weight(1 + rng.IntN(50))
			batch.Weights = append(batch.Weights, WeightUpdate{Edge: EdgeID(i), W: edges[i].W})
		}
		r, ok := g.Reweighted(edges)
		if !ok {
			t.Fatalf("%s: matching records refused", name)
		}
		want := g.Clone()
		if err := want.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if !same(r, want) {
			t.Fatalf("%s: reweighted graph differs from a reweighted clone", name)
		}
		if r.N() != want.N() || r.M() != want.M() || r.NumHalves() != want.NumHalves() {
			t.Fatalf("%s: sizes differ", name)
		}
		for u := NodeID(0); u < n; u++ {
			if !slices.Equal(r.Ports(u), want.Ports(u)) || r.HalfOffset(u) != want.HalfOffset(u) || r.ID(u) != want.ID(u) {
				t.Fatalf("%s: node %d reads differently", name, u)
			}
			for port := range r.Ports(u) {
				if r.HalfAt(u, port) != want.HalfAt(u, port) || r.DstPort(u, port) != want.DstPort(u, port) {
					t.Fatalf("%s: port %d of node %d reads differently", name, port, u)
				}
			}
		}
		for e := EdgeID(0); int(e) < r.M(); e++ {
			if r.Key(e) != want.Key(e) || r.Weight(e) != want.Weight(e) {
				t.Fatalf("%s: edge %d reads differently", name, e)
			}
		}
		if !slices.Equal(r.GlobalOrder(), want.GlobalOrder()) {
			t.Fatalf("%s: global order differs", name)
		}
		shared := func(what string, a, b unsafe.Pointer) {
			if a != b {
				t.Errorf("%s: reweighted graph does not share %s", name, what)
			}
		}
		shared("adj", unsafe.Pointer(&r.adj[0]), unsafe.Pointer(&g.adj[0]))
		shared("off", unsafe.Pointer(&r.off[0]), unsafe.Pointer(&g.off[0]))
		shared("deg", unsafe.Pointer(&r.deg[0]), unsafe.Pointer(&g.deg[0]))
		shared("ids", unsafe.Pointer(&r.ids[0]), unsafe.Pointer(&g.ids[0]))
		shared("the caller's records", unsafe.Pointer(&r.edges[0]), unsafe.Pointer(&edges[0]))

		before := r.Clone()
		c := r.Clone()
		if err := c.ApplyBatch(Batch{
			Weights:   []WeightUpdate{{Edge: 1, W: 99}},
			Deletions: []EdgeID{EdgeID(n + 1), EdgeID(n + 5)},
		}); err != nil {
			t.Fatal(err)
		}
		if !same(g, pristine) || !same(r, before) {
			t.Fatalf("%s: patching a clone of the reweighted graph changed it or its source", name)
		}
	}
}
