package graph_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mstadvice/internal/graph"
	"mstadvice/internal/reference"
)

// triangle builds the weighted triangle used by several tests:
// 0-1 (w=5), 1-2 (w=3), 0-2 (w=5).
func triangle(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.NewBuilder(3).
		AddEdge(0, 1, 5).
		AddEdge(1, 2, 3).
		AddEdge(0, 2, 5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := triangle(t)
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N,M = %d,%d", g.N(), g.M())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 2 || g.Degree(2) != 2 {
		t.Fatal("wrong degrees")
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if g.MaxWeight() != 5 {
		t.Fatalf("MaxWeight = %d", g.MaxWeight())
	}
	// Ports follow insertion order.
	if g.HalfAt(0, 0).To != 1 || g.HalfAt(0, 1).To != 2 {
		t.Fatal("port order at node 0 wrong")
	}
	e := g.Ports(1)[0]
	if g.Other(e, 1) != 0 || g.Other(e, 0) != 1 {
		t.Fatal("Other inconsistent")
	}
	if g.PortAt(e, 0) != 0 || g.PortAt(e, 1) != 0 {
		t.Fatal("PortAt inconsistent")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := graph.NewBuilder(2).AddEdge(0, 0, 1).Build(); err == nil {
		t.Error("self-loop not rejected")
	}
	if _, err := graph.NewBuilder(2).AddEdge(0, 1, 1).AddEdge(1, 0, 2).Build(); err == nil {
		t.Error("duplicate edge not rejected")
	}
	if _, err := graph.NewBuilder(2).AddEdge(0, 3, 1).Build(); err == nil {
		t.Error("out-of-range endpoint not rejected")
	}
}

func TestDefaultIDsDistinct(t *testing.T) {
	g := triangle(t)
	if g.ID(0) == g.ID(1) || g.ID(1) == g.ID(2) {
		t.Fatal("default IDs not distinct")
	}
}

func TestGlobalKeyTotalOrder(t *testing.T) {
	// Equal weights everywhere: keys must still be pairwise distinct.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(2, 3, 1).AddEdge(3, 0, 1).AddEdge(0, 2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < g.M(); a++ {
		for c := 0; c < g.M(); c++ {
			if a == c {
				continue
			}
			ka, kc := g.Key(graph.EdgeID(a)), g.Key(graph.EdgeID(c))
			if ka == kc {
				t.Fatalf("edges %d and %d share global key %+v", a, c, ka)
			}
			if ka.Less(kc) == kc.Less(ka) {
				t.Fatalf("global order not antisymmetric for %d,%d", a, c)
			}
		}
	}
}

func TestLocalRankBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(t, rng, 12, 25)
		for u := graph.NodeID(0); int(u) < g.N(); u++ {
			seen := make(map[int]bool)
			byRank := reference.PortsByLocalOrder(g, u)
			for p := 0; p < g.Degree(u); p++ {
				r := g.LocalRank(u, p)
				if r < 0 || r >= g.Degree(u) {
					t.Fatalf("rank %d out of range", r)
				}
				if seen[r] {
					t.Fatalf("duplicate local rank %d at node %d", r, u)
				}
				seen[r] = true
				if byRank[r] != p {
					t.Fatalf("local order of %d: rank %d is port %d, want %d", u, r, byRank[r], p)
				}
			}
		}
	}
}

func TestLocalRankOrder(t *testing.T) {
	// Node 0 with edges of weights 9, 2, 2 on ports 0, 1, 2:
	// local order is (2,port1), (2,port2), (9,port0).
	g := reference.MustBuild(graph.NewBuilder(4).AddEdge(0, 1, 9).AddEdge(0, 2, 2).AddEdge(0, 3, 2))
	want := map[int]int{0: 2, 1: 0, 2: 1}
	for port, rank := range want {
		if got := g.LocalRank(0, port); got != rank {
			t.Errorf("LocalRank(0,%d) = %d, want %d", port, got, rank)
		}
	}
	if ports := reference.PortsByLocalOrder(g, 0); ports[0] != 1 || ports[1] != 2 || ports[2] != 0 {
		t.Errorf("PortsByLocalOrder = %v", ports)
	}
}

func TestGlobalRankConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(t, rng, 10, 20)
		for u := graph.NodeID(0); int(u) < g.N(); u++ {
			ports := reference.PortsByGlobalOrder(g, u)
			for want, p := range ports {
				if got := g.GlobalRankAt(u, p); got != want {
					t.Fatalf("GlobalRankAt(%d,%d) = %d, want %d", u, p, got, want)
				}
			}
		}
	}
}

func TestBFSAndDiameter(t *testing.T) {
	// Path 0-1-2-3.
	g := reference.MustBuild(graph.NewBuilder(4).AddEdge(0, 1, 1).AddEdge(1, 2, 1).AddEdge(2, 3, 1))
	dist, pp := g.BFS(0)
	wantDist := []int{0, 1, 2, 3}
	for i, d := range wantDist {
		if dist[i] != d {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], d)
		}
	}
	if pp[0] != -1 {
		t.Fatal("source should have no parent")
	}
	// Node 3's parent port leads to node 2.
	if g.HalfAt(3, pp[3]).To != 2 {
		t.Fatal("parent port of node 3 wrong")
	}
	if !reference.Connected(g) {
		t.Fatal("path should be connected")
	}
	if reference.Diameter(g) != 3 {
		t.Fatalf("Diameter = %d, want 3", reference.Diameter(g))
	}
	if dist, _ := g.BFS(1); slices.Max(dist) != 2 {
		t.Fatalf("Ecc(1) = %d, want 2", slices.Max(dist))
	}
}

func TestDisconnected(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(4).AddEdge(0, 1, 1).AddEdge(2, 3, 1))
	if reference.Connected(g) {
		t.Fatal("graph should be disconnected")
	}
	dist, _ := g.BFS(0)
	if dist[2] != -1 || dist[3] != -1 {
		t.Fatal("unreachable nodes should have dist -1")
	}
}

func TestSingleNode(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(1))
	if !reference.Connected(g) || reference.Diameter(g) != 0 || g.MaxDegree() != 0 {
		t.Fatal("single-node invariants broken")
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for x, want := range cases {
		if got := graph.CeilLog2(x); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestCeilLog2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	graph.CeilLog2(0)
}

// randomGraph builds a small random connected-ish graph with possible
// weight ties (direct builder use; gen is tested separately to avoid an
// import cycle in coverage reasoning).
func randomGraph(t *testing.T, rng *rand.Rand, n, m int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	seen := map[[2]int]bool{}
	for i := 1; i < n; i++ {
		u := rng.Intn(i)
		seen[[2]int{u, i}] = true
		b.AddEdge(graph.NodeID(u), graph.NodeID(i), graph.Weight(rng.Intn(7)+1))
	}
	for k := 0; k < m; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(graph.NodeID(u), graph.NodeID(v), graph.Weight(rng.Intn(7)+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Property: the global order sorts edges primarily by weight.
func TestQuickGlobalOrderRespectsWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(t, rng, 9, 14)
		ids := make([]graph.EdgeID, g.M())
		for i := range ids {
			ids[i] = graph.EdgeID(i)
		}
		sort.Slice(ids, func(a, b int) bool { return g.EdgeLess(ids[a], ids[b]) })
		for i := 1; i < len(ids); i++ {
			if g.Weight(ids[i-1]) > g.Weight(ids[i]) {
				t.Fatalf("global order violates weight order at %d", i)
			}
		}
	}
}

// Property: the global order is a strict total order — irreflexive,
// antisymmetric and transitive — over sampled edge triples, including on
// tie-heavy graphs.
func TestQuickGlobalOrderStrictTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(t, rng, 10, 22)
		m := g.M()
		for k := 0; k < 200; k++ {
			a := graph.EdgeID(rng.Intn(m))
			b := graph.EdgeID(rng.Intn(m))
			c := graph.EdgeID(rng.Intn(m))
			if g.EdgeLess(a, a) {
				t.Fatal("irreflexivity violated")
			}
			if a != b && g.EdgeLess(a, b) == g.EdgeLess(b, a) {
				t.Fatal("antisymmetry/totality violated")
			}
			if g.EdgeLess(a, b) && g.EdgeLess(b, c) && !g.EdgeLess(a, c) {
				t.Fatal("transitivity violated")
			}
		}
	}
}

// Property (via testing/quick): CeilLog2 satisfies 2^(k-1) < x <= 2^k.
func TestQuickCeilLog2Bound(t *testing.T) {
	f := func(raw uint16) bool {
		x := int(raw%4096) + 1
		k := graph.CeilLog2(x)
		return 1<<uint(k) >= x && (k == 0 || 1<<uint(k-1) < x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCSRRepresentation checks the flat adjacency invariants: Ports
// matches HalfAt, offsets are monotone degree prefix sums, and DstPort
// inverts port reciprocity.
func TestCSRRepresentation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(t, rng, 12, 26)
		if g.NumHalves() != 2*g.M() {
			t.Fatalf("NumHalves = %d, want %d", g.NumHalves(), 2*g.M())
		}
		off := 0
		for u := 0; u < g.N(); u++ {
			if g.HalfOffset(graph.NodeID(u)) != off {
				t.Fatalf("HalfOffset(%d) = %d, want %d", u, g.HalfOffset(graph.NodeID(u)), off)
			}
			ports := g.Ports(graph.NodeID(u))
			if len(ports) != g.Degree(graph.NodeID(u)) {
				t.Fatalf("Ports(%d) has %d entries, degree %d", u, len(ports), g.Degree(graph.NodeID(u)))
			}
			for p, e := range ports {
				h := g.HalfAt(graph.NodeID(u), p)
				if h.Edge != e || h.To != g.Other(e, graph.NodeID(u)) {
					t.Fatalf("Ports(%d)[%d] = %d, HalfAt = %+v", u, p, e, h)
				}
				dp := g.DstPort(graph.NodeID(u), p)
				if want := g.PortAt(h.Edge, h.To); dp != want {
					t.Fatalf("DstPort(%d, %d) = %d, want %d", u, p, dp, want)
				}
				// Reciprocity: the far endpoint's DstPort points back.
				if back := g.DstPort(h.To, dp); back != p {
					t.Fatalf("DstPort reciprocity broken at (%d, %d): %d", u, p, back)
				}
			}
			off += len(ports)
		}
	}
}

func TestFromRecordsRoundTrip(t *testing.T) {
	g := triangle(t)
	back, err := graph.FromEdgeList(g.N(), slices.Clone(g.IDs()), slices.Clone(g.Edges()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := reference.Equal(g, back); err != nil {
		t.Fatalf("FromEdgeList round-trip: %v", err)
	}
}

func TestFromRecordsAfterDeletion(t *testing.T) {
	// Deletions swap-remove ports, so the surviving records no longer have
	// insertion-order ports; FromEdgeList must still reproduce them exactly.
	g := reference.MustBuild(graph.NewBuilder(4).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 2).
		AddEdge(2, 3, 3).
		AddEdge(3, 0, 4).
		AddEdge(0, 2, 5))
	if err := g.ApplyBatch(graph.Batch{Deletions: []graph.EdgeID{0}}); err != nil {
		t.Fatal(err)
	}
	back, err := graph.FromEdgeList(g.N(), slices.Clone(g.IDs()), slices.Clone(g.Edges()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := reference.Equal(g, back); err != nil {
		t.Fatalf("FromEdgeList after deletion: %v", err)
	}
}

func TestFromRecordsRejectsMalformed(t *testing.T) {
	g := triangle(t)
	ids := g.IDs()
	cases := map[string][]graph.Edge{
		"endpoint out of range": {{U: 0, V: 9, PU: 0, PV: 0, W: 1}},
		"self-loop":             {{U: 1, V: 1, PU: 0, PV: 1, W: 1}},
		"port out of range":     {{U: 0, V: 1, PU: 5, PV: 0, W: 1}},
		"port collision": {
			{U: 0, V: 1, PU: 0, PV: 0, W: 1},
			{U: 0, V: 2, PU: 0, PV: 0, W: 2},
		},
		"weight mismatch reaches Validate": {
			{U: 0, V: 1, PU: 0, PV: 0, W: 5},
			{U: 1, V: 2, PU: 1, PV: 0, W: 3},
			{U: 0, V: 2, PU: 1, PV: 0, W: 5},
			{U: 0, V: 1, PU: 2, PV: 2, W: 7}, // duplicate edge
		},
	}
	for name, edges := range cases {
		if _, err := graph.FromEdgeList(len(ids), ids, edges, 0); err == nil {
			t.Errorf("%s: FromEdgeList accepted malformed records", name)
		}
	}
	edge := func() []graph.Edge { return []graph.Edge{{U: 0, V: 1, PU: 0, PV: 0, W: 1}} }
	if _, err := graph.FromEdgeList(2, []int64{7, 7}, edge(), 0); err == nil {
		t.Error("duplicate IDs not rejected")
	}
	if _, err := graph.FromEdgeList(2, []int64{1}, edge(), 0); err == nil {
		t.Error("short ID slice not rejected")
	}
}
