// Package mst computes and verifies the centralized minimum spanning
// tree. Everything tie-breaks with the graph's intrinsic global edge
// order, under which the MST is unique, and every distributed scheme in
// this repository is verified against that tree. Kruskal walks
// graph.GlobalOrder, a parallel radix sort; Verify keeps a comparison
// sort of its own, so that checking Kruskal's output stays independent.
// The sensitivity oracle (internal/dynamic) runs its own Kruskal walk of
// the same order, on a union-find that also yields cycle maxima, and
// roots the tree with Root. Tests hold Kruskal to internal/reference's
// naive Kruskal, which shares neither the order nor the union-find.
//
// See DESIGN.md §1 for the intrinsic global order and DESIGN.md §2.2
// for the verification step every scheme run ends with.
package mst

import (
	"fmt"
	"slices"

	"mstadvice/internal/graph"
	"mstadvice/internal/unionfind"
)

// Kruskal returns the unique MST (under the global order) of a connected
// graph as a sorted slice of edge IDs. It walks g.GlobalOrder(), the
// packed radix sort of all edges, so its cost is that sort plus one
// union-find pass: O(m α) after the sort.
func Kruskal(g *graph.Graph) ([]graph.EdgeID, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("mst: empty graph")
	}
	dsu := unionfind.New(g.N())
	tree := make([]graph.EdgeID, 0, g.N()-1)
	for _, e := range g.GlobalOrder() {
		rec := g.Edge(e)
		if dsu.Union(int(rec.U), int(rec.V)) {
			tree = append(tree, e)
		}
	}
	if len(tree) != g.N()-1 {
		return nil, fmt.Errorf("mst: graph is disconnected (%d tree edges for %d nodes)", len(tree), g.N())
	}
	slices.Sort(tree)
	return tree, nil
}

// IsSpanningTree reports whether edges form a spanning tree of g.
func IsSpanningTree(g *graph.Graph, edges []graph.EdgeID) bool {
	if len(edges) != g.N()-1 {
		return false
	}
	dsu := unionfind.New(g.N())
	for _, e := range edges {
		rec := g.Edge(e)
		if !dsu.Union(int(rec.U), int(rec.V)) {
			return false // cycle
		}
	}
	return dsu.Sets() == 1
}

// Verify checks that edges form the unique MST of g using the cycle
// property: a spanning tree is the unique MST under a strict total edge
// order iff every non-tree edge is the strict maximum on the tree cycle it
// closes. One sweep in the global order checks every cycle: only tree
// edges are united, so a non-tree edge whose endpoints are not yet joined
// when it comes up is lighter than some tree edge on its cycle.
// O(m log m). The sort is Verify's own, so checking Kruskal's output here
// stays an independent check.
func Verify(g *graph.Graph, edges []graph.EdgeID) error {
	if !IsSpanningTree(g, edges) {
		return fmt.Errorf("mst: not a spanning tree")
	}
	inTree := make([]bool, g.M())
	for _, e := range edges {
		inTree[e] = true
	}
	order := make([]graph.EdgeID, g.M())
	for i := range order {
		order[i] = graph.EdgeID(i)
	}
	slices.SortFunc(order, func(a, b graph.EdgeID) int {
		switch {
		case g.EdgeLess(a, b):
			return -1
		case g.EdgeLess(b, a):
			return 1
		default:
			return 0
		}
	})
	dsu := unionfind.New(g.N())
	for _, e := range order {
		rec := g.Edge(e)
		if inTree[e] {
			dsu.Union(int(rec.U), int(rec.V))
		} else if !dsu.Same(int(rec.U), int(rec.V)) {
			return fmt.Errorf("mst: non-tree edge %d is lighter than a tree edge on its cycle", e)
		}
	}
	return nil
}

// Root orients a spanning tree towards root and returns, for every node,
// the port of the edge leading to its parent (-1 for the root). The tree
// adjacency is a counting-sort CSR (three fixed allocations), so rooting
// stays allocation-lean on the oracle pipeline at n = 10⁶.
func Root(g *graph.Graph, edges []graph.EdgeID, root graph.NodeID) ([]int, error) {
	n := g.N()
	if len(edges) != n-1 {
		return nil, fmt.Errorf("mst: %d edges cannot span %d nodes", len(edges), n)
	}
	deg := make([]int32, n+1)
	for _, e := range edges {
		rec := g.Edge(e)
		deg[rec.U+1]++
		deg[rec.V+1]++
	}
	for u := 0; u < n; u++ {
		deg[u+1] += deg[u]
	}
	adjFlat := make([]graph.EdgeID, deg[n])
	cur := make([]int32, n)
	copy(cur, deg[:n])
	for _, e := range edges {
		rec := g.Edge(e)
		adjFlat[cur[rec.U]] = e
		cur[rec.U]++
		adjFlat[cur[rec.V]] = e
		cur[rec.V]++
	}
	parentPort := make([]int, n)
	for i := range parentPort {
		parentPort[i] = -2 // unvisited
	}
	parentPort[root] = -1
	queue := make([]graph.NodeID, 0, n)
	queue = append(queue, root)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, e := range adjFlat[deg[u]:cur[u]] {
			rec := g.Edge(e)
			v, pv := rec.V, rec.PV
			if v == u {
				v, pv = rec.U, rec.PU
			}
			if parentPort[v] == -2 {
				parentPort[v] = int(pv)
				queue = append(queue, v)
			}
		}
	}
	for i, p := range parentPort {
		if p == -2 {
			return nil, fmt.Errorf("mst: node %d unreachable in tree", i)
		}
	}
	return parentPort, nil
}

// EdgesFromParentPorts converts a parent-port assignment back into an edge
// set, validating that exactly one node (the root) has port -1 and that
// every other node names a real port.
func EdgesFromParentPorts(g *graph.Graph, parentPort []int) ([]graph.EdgeID, error) {
	if len(parentPort) != g.N() {
		return nil, fmt.Errorf("mst: parent ports for %d nodes, graph has %d", len(parentPort), g.N())
	}
	roots := 0
	var edges []graph.EdgeID
	for u, p := range parentPort {
		if p == -1 {
			roots++
			continue
		}
		if p < 0 || p >= g.Degree(graph.NodeID(u)) {
			return nil, fmt.Errorf("mst: node %d has invalid parent port %d", u, p)
		}
		edges = append(edges, g.HalfAt(graph.NodeID(u), p).Edge)
	}
	if roots != 1 {
		return nil, fmt.Errorf("mst: %d roots, want exactly 1", roots)
	}
	slices.Sort(edges)
	return edges, nil
}

// VerifyRooted checks that parentPort encodes the unique MST of g rooted at
// root: the induced edge set is the MST, the root is root, and following
// parents from any node reaches the root without cycles.
func VerifyRooted(g *graph.Graph, parentPort []int, root graph.NodeID) error {
	if parentPort[root] != -1 {
		return fmt.Errorf("mst: designated root %d has parent port %d", root, parentPort[root])
	}
	edges, err := EdgesFromParentPorts(g, parentPort)
	if err != nil {
		return err
	}
	if err := Verify(g, edges); err != nil {
		return err
	}
	return checkOrientation(g, parentPort, root)
}

// checkOrientation checks that following parent ports from every node
// reaches root without a cycle. Every port must be valid and only root
// may hold -1, as EdgesFromParentPorts ensures. Each node is walked
// once: a walk stops at the first node already known to reach the root,
// and a walk that meets its own path has found a cycle. A second pass
// marks the finished path as reaching the root, so the check is O(n).
func checkOrientation(g *graph.Graph, parentPort []int, root graph.NodeID) error {
	const (
		unvisited = iota
		onPath
		reachesRoot
	)
	state := make([]uint8, g.N())
	state[root] = reachesRoot
	for u := 0; u < g.N(); u++ {
		v := graph.NodeID(u)
		for state[v] == unvisited {
			state[v] = onPath
			v = g.HalfAt(v, parentPort[v]).To
		}
		if state[v] == onPath {
			return fmt.Errorf("mst: parent pointers from %d do not reach the root", u)
		}
		for v = graph.NodeID(u); state[v] == onPath; v = g.HalfAt(v, parentPort[v]).To {
			state[v] = reachesRoot
		}
	}
	return nil
}
