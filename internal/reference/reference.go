// Package reference is the naive reference that tests judge MSTs
// against: a plain Kruskal with its own comparator and its own
// union-find, sharing no code with internal/mst, internal/boruvka or
// internal/unionfind, so a check against it is never a second copy of
// the algorithm it checks (DESIGN.md §2.2). It reads only a graph's edge
// records and identifiers, and it is written for clarity at test sizes,
// not for speed. Only tests import it: it is the repository's one
// test-support package.
package reference

import (
	"cmp"
	"slices"

	"mstadvice/internal/graph"
)

// Kruskal returns the minimum spanning forest of g under the intrinsic
// edge order (weight, smaller endpoint identifier, port at that
// endpoint), as ascending edge IDs; for a connected g that is its
// unique MST.
func Kruskal(g *graph.Graph) []graph.EdgeID {
	edges := g.Edges()
	key := func(e graph.Edge) (graph.Weight, int64, int32) {
		if g.ID(e.U) < g.ID(e.V) {
			return e.W, g.ID(e.U), e.PU
		}
		return e.W, g.ID(e.V), e.PV
	}
	order := make([]graph.EdgeID, len(edges))
	for i := range order {
		order[i] = graph.EdgeID(i)
	}
	slices.SortFunc(order, func(a, b graph.EdgeID) int {
		wa, ia, pa := key(edges[a])
		wb, ib, pb := key(edges[b])
		return cmp.Or(cmp.Compare(wa, wb), cmp.Compare(ia, ib), cmp.Compare(pa, pb))
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
