package core

import (
	"cmp"
	"slices"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/graph"
	"mstadvice/internal/sim"
)

// FuzzCoreDecode runs the strict and the adaptive decoder on small
// graphs read from the input (n ≤ 32, weights 1–4, any port numbering
// and identifiers) and holds their output to an independent reference:
// a Kruskal and BFS rooting written below. Both decoders must finish
// without an engine error on at most 12 advice bits per node, the strict
// one in exactly RoundBound(n) rounds, and every node must name the
// reference's parent port. The committed seeds under testdata/fuzz are a
// star, a path and a complete graph of equal weights.
func FuzzCoreDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, root := fuzzGraph(t, data)
		want := referenceParents(g, root)
		exact, _ := RoundBound(g.N())
		for _, s := range []Scheme{{}, {Adaptive: true}} {
			res, err := advice.Run(s, g, root, sim.Options{})
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if res.Advice.MaxBits > 12 {
				t.Fatalf("%s: %d advice bits", s.Name(), res.Advice.MaxBits)
			}
			if !s.Adaptive && res.Rounds != exact {
				t.Fatalf("%s: %d rounds, schedule says %d", s.Name(), res.Rounds, exact)
			}
			if !slices.Equal(res.ParentPorts, want) {
				t.Fatalf("%s: parent ports %v, reference %v", s.Name(), res.ParentPorts, want)
			}
		}
	})
}

// fuzzGraph reads a connected graph and a root. Byte 0 gives n − 2 and
// byte 1 the root; then each node v ≥ 1 names its spanning-tree parent
// among nodes < v and the edge's weight; then a count of extra edges and
// a (u, v, weight) triple for each, duplicates and loops skipped; then
// one shuffle choice per port, so every port numbering can occur; then
// one identifier byte per node. Missing bytes read as zero.
func fuzzGraph(t *testing.T, data []byte) (*graph.Graph, graph.NodeID) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
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
	ids := make([]int64, n)
	for u := range ids {
		ids[u] = int64(next())<<5 | int64(u) // distinct, in any order
	}
	g, err := graph.FromEdgeList(n, ids, edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, root
}

// referenceParents is the rooted MST under the intrinsic edge order
// (weight, smaller identifier, port at that endpoint): Kruskal with its
// own union-find, then a BFS from root that gives every other node the
// port of its tree edge.
func referenceParents(g *graph.Graph, root graph.NodeID) []int {
	type half struct{ to, port int } // port: the edge's port at to
	edges := g.Edges()
	key := func(e graph.Edge) (graph.Weight, int64, int32) {
		if g.ID(e.U) < g.ID(e.V) {
			return e.W, g.ID(e.U), e.PU
		}
		return e.W, g.ID(e.V), e.PV
	}
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
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
	tree := make([][]half, g.N())
	for _, i := range order {
		e := edges[i]
		if a, b := find(int(e.U)), find(int(e.V)); a != b {
			comp[a] = b
			tree[e.U] = append(tree[e.U], half{int(e.V), int(e.PV)})
			tree[e.V] = append(tree[e.V], half{int(e.U), int(e.PU)})
		}
	}
	parent := make([]int, g.N())
	for u := range parent {
		parent[u] = -2 // unreached
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
