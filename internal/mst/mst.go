// Package mst implements centralized minimum-spanning-tree algorithms
// and verifiers. Everything tie-breaks with the graph's intrinsic global
// edge order, under which the MST is unique; Kruskal, Prim and Borůvka
// must therefore return exactly the same edge set, and every distributed
// scheme in this repository is verified against that set. Kruskal walks
// graph.GlobalOrder, a parallel radix sort; Verify keeps a comparison
// sort of its own, so that checking Kruskal's output stays independent.
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
	return KruskalOrdered(g, g.GlobalOrder())
}

// KruskalOrdered is Kruskal over an order the caller has already
// computed: order must be g.GlobalOrder(). A caller that walks the
// order again (the sensitivity oracle's covering walk) sorts once.
func KruskalOrdered(g *graph.Graph, order []graph.EdgeID) ([]graph.EdgeID, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("mst: empty graph")
	}
	dsu := unionfind.New(g.N())
	tree := make([]graph.EdgeID, 0, g.N()-1)
	for _, e := range order {
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

// halfHeap is a binary min-heap of candidate edges keyed by the global
// order, used by Prim.
type halfHeap struct {
	g     *graph.Graph
	items []graph.EdgeID
}

func (h *halfHeap) push(e graph.EdgeID) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.g.EdgeLess(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *halfHeap) pop() graph.EdgeID {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.g.EdgeLess(h.items[l], h.items[small]) {
			small = l
		}
		if r < len(h.items) && h.g.EdgeLess(h.items[r], h.items[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// Prim returns the unique MST grown from start. For connected inputs the
// result equals Kruskal's.
func Prim(g *graph.Graph, start graph.NodeID) ([]graph.EdgeID, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("mst: empty graph")
	}
	inTree := make([]bool, g.N())
	inTree[start] = true
	h := &halfHeap{g: g}
	for _, e := range g.Ports(start) {
		h.push(e)
	}
	var tree []graph.EdgeID
	for len(tree) < g.N()-1 && len(h.items) > 0 {
		e := h.pop()
		rec := g.Edge(e)
		var u graph.NodeID
		switch {
		case inTree[rec.U] && inTree[rec.V]:
			continue
		case inTree[rec.U]:
			u = rec.V
		default:
			u = rec.U
		}
		inTree[u] = true
		tree = append(tree, e)
		for _, next := range g.Ports(u) {
			if !inTree[g.Other(next, u)] {
				h.push(next)
			}
		}
	}
	if len(tree) != g.N()-1 {
		return nil, fmt.Errorf("mst: graph is disconnected")
	}
	slices.Sort(tree)
	return tree, nil
}

// Boruvka returns the unique MST via the classic algorithm: every
// component repeatedly selects its minimum outgoing edge under the global
// order. The intrinsic total order guarantees the selected edge set is
// acyclic even with weight ties.
func Boruvka(g *graph.Graph) ([]graph.EdgeID, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("mst: empty graph")
	}
	dsu := unionfind.New(g.N())
	var tree []graph.EdgeID
	for dsu.Sets() > 1 {
		best := make(map[int]graph.EdgeID) // component root -> min outgoing edge
		for ei := 0; ei < g.M(); ei++ {
			e := graph.EdgeID(ei)
			rec := g.Edge(e)
			ru, rv := dsu.Find(int(rec.U)), dsu.Find(int(rec.V))
			if ru == rv {
				continue
			}
			for _, r := range [2]int{ru, rv} {
				if cur, ok := best[r]; !ok || g.EdgeLess(e, cur) {
					best[r] = e
				}
			}
		}
		if len(best) == 0 {
			return nil, fmt.Errorf("mst: graph is disconnected")
		}
		progress := false
		// Deterministic iteration over components.
		roots := make([]int, 0, len(best))
		for r := range best {
			roots = append(roots, r)
		}
		slices.Sort(roots)
		for _, r := range roots {
			e := best[r]
			rec := g.Edge(e)
			if dsu.Union(int(rec.U), int(rec.V)) {
				tree = append(tree, e)
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("mst: no progress (internal error)")
		}
	}
	slices.Sort(tree)
	return tree, nil
}

// ReverseDelete returns the unique MST by the dual of Kruskal: walk the
// edges from heaviest to lightest (global order) and delete each one whose
// removal keeps the graph connected. O(m²)-ish; used as an independent
// cross-check of the other algorithms.
func ReverseDelete(g *graph.Graph) ([]graph.EdgeID, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("mst: empty graph")
	}
	order := make([]graph.EdgeID, g.M())
	for i := range order {
		order[i] = graph.EdgeID(i)
	}
	slices.SortFunc(order, func(a, b graph.EdgeID) int { // descending
		switch {
		case g.EdgeLess(b, a):
			return -1
		case g.EdgeLess(a, b):
			return 1
		default:
			return 0
		}
	})
	kept := make([]bool, g.M())
	for i := range kept {
		kept[i] = true
	}
	// connectedWithout checks connectivity over the kept edges.
	connectedWithout := func() bool {
		dsu := unionfind.New(g.N())
		for ei := 0; ei < g.M(); ei++ {
			if kept[ei] {
				rec := g.Edge(graph.EdgeID(ei))
				dsu.Union(int(rec.U), int(rec.V))
			}
		}
		return dsu.Sets() == 1
	}
	if !connectedWithout() {
		return nil, fmt.Errorf("mst: graph is disconnected")
	}
	for _, e := range order {
		kept[e] = false
		if !connectedWithout() {
			kept[e] = true
		}
	}
	var tree []graph.EdgeID
	for ei := 0; ei < g.M(); ei++ {
		if kept[ei] {
			tree = append(tree, graph.EdgeID(ei))
		}
	}
	if len(tree) != g.N()-1 {
		return nil, fmt.Errorf("mst: reverse delete kept %d edges (internal error)", len(tree))
	}
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

// SameEdges reports whether two sorted edge sets are identical.
func SameEdges(a, b []graph.EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
