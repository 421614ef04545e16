// Package reference is the naive reference that tests judge MSTs
// against: a plain Kruskal with its own comparator and its own
// union-find, sharing no code with internal/mst, internal/boruvka or
// internal/unionfind, so a check against it is never a second copy of
// the algorithm it checks (DESIGN.md §2.2). Boruvka simulates the §2.2
// decomposition as naively, for the tests of its one pass 2
// (boruvka's Decomposition.Run) and of the tiers built on it, and
// Contract collapses one of its phases into a tier's coarse graph. It also
// holds the graph helpers that several packages' tests share: a builder
// that panics, graph equality, connectivity, diameter, a structural
// check, each node's ports in the global order and the fuzz targets'
// graph reader. It reads a graph
// only through its exported accessors, and it is written for clarity at
// test sizes, not for speed. Only tests import it: it is the
// repository's one test-support package, and the one package the
// internal export audit (TestInternalExportsAreCalled) exempts.
package reference

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mstadvice/internal/graph"
)

// key is the intrinsic edge order: weight, then the smaller endpoint
// identifier, then the edge's port at that endpoint.
func key(g *graph.Graph, e graph.Edge) (graph.Weight, int64, int32) {
	if g.ID(e.U) < g.ID(e.V) {
		return e.W, g.ID(e.U), e.PU
	}
	return e.W, g.ID(e.V), e.PV
}

func compareEdges(g *graph.Graph, a, b graph.Edge) int {
	wa, ia, pa := key(g, a)
	wb, ib, pb := key(g, b)
	return cmp.Or(cmp.Compare(wa, wb), cmp.Compare(ia, ib), cmp.Compare(pa, pb))
}

// Kruskal returns the minimum spanning forest of g under the intrinsic
// edge order (weight, smaller endpoint identifier, port at that
// endpoint), as ascending edge IDs; for a connected g that is its
// unique MST.
func Kruskal(g *graph.Graph) []graph.EdgeID {
	edges := g.Edges()
	order := make([]graph.EdgeID, len(edges))
	for i := range order {
		order[i] = graph.EdgeID(i)
	}
	slices.SortFunc(order, func(a, b graph.EdgeID) int {
		return compareEdges(g, edges[a], edges[b])
	})
	comp := make([]int, g.N())
	for u := range comp {
		comp[u] = u
	}
	find := func(u int) int {
		for comp[u] != u {
			comp[u] = comp[comp[u]]
			u = comp[u]
		}
		return u
	}
	var tree []graph.EdgeID
	for _, e := range order {
		if a, b := find(int(edges[e].U)), find(int(edges[e].V)); a != b {
			comp[a] = b
			tree = append(tree, e)
		}
	}
	slices.Sort(tree)
	return tree
}

// Parents roots Kruskal(g) at root by a BFS over its edges: every
// other node gets the port, at that node, of its edge towards root;
// root gets -1 and a node the forest does not connect to root gets -2.
func Parents(g *graph.Graph, root graph.NodeID) []int {
	type half struct{ to, port int } // port: the edge's port at to
	tree := make([][]half, g.N())
	for _, id := range Kruskal(g) {
		e := g.Edge(id)
		tree[e.U] = append(tree[e.U], half{int(e.V), int(e.PV)})
		tree[e.V] = append(tree[e.V], half{int(e.U), int(e.PU)})
	}
	parent := make([]int, g.N())
	for u := range parent {
		parent[u] = -2
	}
	parent[root] = -1
	for queue := []int{int(root)}; len(queue) > 0; queue = queue[1:] {
		for _, h := range tree[queue[0]] {
			if parent[h.to] == -2 {
				parent[h.to] = h.port
				queue = append(queue, h.to)
			}
		}
	}
	return parent
}

// PortsByLocalOrder returns u's ports sorted by the local order: weight,
// then port number.
func PortsByLocalOrder(g *graph.Graph, u graph.NodeID) []int {
	adj := g.Ports(u)
	ports := make([]int, len(adj))
	for i := range ports {
		ports[i] = i
	}
	slices.SortFunc(ports, func(a, b int) int {
		return cmp.Or(cmp.Compare(g.Edge(adj[a]).W, g.Edge(adj[b]).W), cmp.Compare(a, b))
	})
	return ports
}

// PortsByGlobalOrder returns u's ports sorted by the intrinsic edge
// order. With PortsByLocalOrder it is the reference for graph's rank
// functions and the rank tables of internal/localorder.
func PortsByGlobalOrder(g *graph.Graph, u graph.NodeID) []int {
	adj := g.Ports(u)
	ports := make([]int, len(adj))
	for i := range ports {
		ports[i] = i
	}
	slices.SortFunc(ports, func(a, b int) int {
		return compareEdges(g, g.Edge(adj[a]), g.Edge(adj[b]))
	})
	return ports
}

// MustBuild is b.Build for the static graphs tests spell out; it
// panics on an error.
func MustBuild(b *graph.Builder) *graph.Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Connected reports whether g is connected (true for n ≤ 1): its
// minimum spanning forest is then a tree.
func Connected(g *graph.Graph) bool {
	return g.N() <= 1 || len(Kruskal(g)) == g.N()-1
}

// Diameter returns the largest hop distance between two nodes, by a
// breadth-first search from every node. It panics if g is
// disconnected.
func Diameter(g *graph.Graph) int {
	diam := 0
	for u := range graph.NodeID(g.N()) {
		dist, _ := g.BFS(u)
		for _, d := range dist {
			if d < 0 {
				panic("reference: diameter of a disconnected graph")
			}
			diam = max(diam, d)
		}
	}
	return diam
}

// Equal reports whether two graphs are identical in every observable
// respect: node count, identifiers, the edge at every port, and edge
// records (including IDs, ports and weights). It returns a descriptive
// error naming the first difference, or nil.
func Equal(a, b *graph.Graph) error {
	if a.N() != b.N() {
		return fmt.Errorf("graph: node counts differ: %d vs %d", a.N(), b.N())
	}
	if a.M() != b.M() {
		return fmt.Errorf("graph: edge counts differ: %d vs %d", a.M(), b.M())
	}
	for u := range graph.NodeID(a.N()) {
		if a.ID(u) != b.ID(u) {
			return fmt.Errorf("graph: ID of node %d differs: %d vs %d", u, a.ID(u), b.ID(u))
		}
		au, bu := a.Ports(u), b.Ports(u)
		if len(au) != len(bu) {
			return fmt.Errorf("graph: degree of node %d differs: %d vs %d", u, len(au), len(bu))
		}
		for p := range au {
			if au[p] != bu[p] {
				return fmt.Errorf("graph: port (%d,%d) holds edge %d vs %d", u, p, au[p], bu[p])
			}
		}
	}
	for e, rec := range a.Edges() {
		if rec != b.Edge(graph.EdgeID(e)) {
			return fmt.Errorf("graph: edge %d differs: %+v vs %+v", e, rec, b.Edge(graph.EdgeID(e)))
		}
	}
	return nil
}

// Validate checks g's structure sequentially with maps, sharing no code
// with the parallel, sort-based check every graph constructor runs:
// identifiers are distinct, every edge is a simple edge whose two
// recorded ports hold it, and every port holds an edge that records it
// there.
func Validate(g *graph.Graph) error {
	ids := make(map[int64]int, g.N())
	for u := range g.N() {
		if v, dup := ids[g.ID(graph.NodeID(u))]; dup {
			return fmt.Errorf("reference: nodes %d and %d share ID %d", v, u, g.ID(graph.NodeID(u)))
		}
		ids[g.ID(graph.NodeID(u))] = u
	}
	holds := func(u graph.NodeID, p int32, e graph.EdgeID) bool {
		return p >= 0 && int(p) < g.Degree(u) && g.Ports(u)[p] == e
	}
	pairs := make(map[[2]graph.NodeID]bool, g.M())
	for ei, e := range g.Edges() {
		pair := [2]graph.NodeID{min(e.U, e.V), max(e.U, e.V)}
		switch {
		case e.U == e.V:
			return fmt.Errorf("reference: edge %d is a self-loop at %d", ei, e.U)
		case pairs[pair]:
			return fmt.Errorf("reference: duplicate edge %d-%d", pair[0], pair[1])
		case !holds(e.U, e.PU, graph.EdgeID(ei)) || !holds(e.V, e.PV, graph.EdgeID(ei)):
			return fmt.Errorf("reference: edge %d is not at its recorded ports", ei)
		}
		pairs[pair] = true
	}
	for u := range graph.NodeID(g.N()) {
		for p, e := range g.Ports(u) {
			if e < 0 || int(e) >= g.M() {
				return fmt.Errorf("reference: port (%d,%d) holds no edge", u, p)
			}
			if rec := g.Edge(e); !(rec.U == u && int(rec.PU) == p || rec.V == u && int(rec.PV) == p) {
				return fmt.Errorf("reference: port (%d,%d) holds edge %d, which records no such port", u, p, e)
			}
		}
	}
	return nil
}

// FuzzGraph reads a connected graph of 2 ≤ n ≤ 32 nodes with weights
// 1–4, and a root, from next, which yields zero once a fuzz input runs
// out. The first value gives n − 2 and the second the root; then each
// node v ≥ 1 names its spanning-tree parent among nodes < v and the
// edge's weight; then a count of extra edges and a (u, v, weight)
// triple for each, duplicates and loops skipped; then one shuffle
// choice per port (FuzzPorts) and one identifier per node (FuzzIDs).
// It panics if the graph does not build.
func FuzzGraph(next func() int) (*graph.Graph, graph.NodeID) {
	n := 2 + next()%31
	root := graph.NodeID(next() % n)
	var edges []graph.Edge
	seen := map[[2]int]bool{}
	add := func(u, v, w int) {
		key := [2]int{min(u, v), max(u, v)}
		if u == v || seen[key] {
			return
		}
		seen[key] = true
		edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: graph.Weight(1 + w%4)})
	}
	for v := 1; v < n; v++ {
		add(next()%v, v, next())
	}
	for range next() % 64 {
		add(next()%n, next()%n, next())
	}
	FuzzPorts(n, edges, next)
	g, err := graph.FromEdgeList(n, FuzzIDs(n, next), edges, 1)
	if err != nil {
		panic(err)
	}
	return g, root
}

// FuzzPorts numbers the ports of a fuzz target's edges: each node's
// incident edges, in edge order, are shuffled by one choice per port
// read from next, so every port numbering can occur.
func FuzzPorts(n int, edges []graph.Edge, next func() int) {
	inc := make([][]*int32, n) // each node's port slots, in edge order
	for i := range edges {
		e := &edges[i]
		inc[e.U] = append(inc[e.U], &e.PU)
		inc[e.V] = append(inc[e.V], &e.PV)
	}
	for _, slots := range inc {
		for i := len(slots) - 1; i > 0; i-- {
			j := next() % (i + 1)
			slots[i], slots[j] = slots[j], slots[i]
		}
		for p, slot := range slots {
			*slot = int32(p)
		}
	}
}

// extremeIDs are the identifiers at the ends of the int64 range and at
// ±2⁶², the largest powers of two inside it.
var extremeIDs = [...]int64{math.MinInt64, -1 << 62, 1 << 62, math.MaxInt64}

// FuzzIDs reads one identifier byte per node from next and gives the
// n ≤ 32 nodes of a fuzz target distinct identifiers: bytes 0xfc–0xff
// give the first node to ask for it math.MinInt64, −2⁶², 2⁶² or
// math.MaxInt64; any other byte b, or a later ask, gives node u
// b&0x7f·32 + u, negated less one when b ≥ 0x80. So identifiers can be
// negative, extreme and in any order.
func FuzzIDs(n int, next func() int) []int64 {
	ids := make([]int64, n)
	var taken [len(extremeIDs)]bool
	for u := range ids {
		b := next()
		if k := b - 0xfc; k >= 0 && !taken[k] {
			taken[k] = true
			ids[u] = extremeIDs[k]
			continue
		}
		ids[u] = int64(b&0x7f)<<5 | int64(u)
		if b >= 0x80 {
			ids[u] = -ids[u] - 1
		}
	}
	return ids
}

// HierRounds is the hierarchical decoder's round count on an n-node
// instance: ⌈log n⌉ + 1 for n ≥ 2 and 0 below, whatever the level,
// family or worker count.
func HierRounds(n int) int {
	if n < 2 {
		return 0
	}
	return graph.CeilLog2(n) + 1
}
