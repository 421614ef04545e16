// Package dynamic is the dynamic-network subsystem: batched weight
// updates and link failures on a live graph (via graph.ApplyBatch), an
// MST sensitivity oracle computing per-edge tolerances, and incremental
// recomputation of the Theorem 3 advice that re-encodes only the nodes
// whose fragment structure changed.
//
// The sensitivity notions follow the MST verification/sensitivity
// literature (Coy, Czumaj, Mishra, Mukherjee 2022; Balliu et al. 2023
// study how precomputed advice survives instance churn): for a tree edge
// e, the tolerance is the weight of its *replacement edge* — the minimum
// non-tree edge reconnecting the cut that removing e opens — because e
// stays in the MST exactly while its (weight, tie-break) key is below the
// replacement's; for a non-tree edge f, the tolerance is the weight of
// the maximum tree edge on the tree path between f's endpoints, because f
// stays out exactly while its key is above that path maximum. Both are
// computed for every edge at once: path maxima by binary lifting over the
// rooted tree (O((n+m) log n)) and replacement edges by the Kruskal-style
// covering walk with interval union-find (O(m α) over the global order,
// which Analyze sorts once for the walk and for Kruskal).
//
// All comparisons use the graph's intrinsic global order, so the answers
// are exact even under weight ties.
//
// See DESIGN.md §2.4 for the architecture of the dynamic subsystem.
package dynamic

import (
	"fmt"

	"mstadvice/internal/graph"
	"mstadvice/internal/mst"
)

// Sensitivity is a snapshot analysis of one graph: its MST, the rooted
// tree structure, and per-edge tolerance data. It answers WouldChange
// queries exactly as long as the underlying tree edges keep their
// weights; any update accepted through an Advisor fast path preserves
// that, while full recomputes build a fresh analysis.
type Sensitivity struct {
	G *graph.Graph
	// TreeRoot is the node the path structure is rooted at (node 0; the
	// MST itself is root-independent).
	TreeRoot graph.NodeID
	// Tree is the unique MST under the global order, ascending edge IDs.
	Tree []graph.EdgeID
	// InTree flags MST membership per edge.
	InTree []bool
	// Parent, ParentEdge and Depth describe the tree rooted at TreeRoot
	// (-1 parent/edge for the root).
	Parent     []graph.NodeID
	ParentEdge []graph.EdgeID
	Depth      []int
	// Replacement[e], for a tree edge e, is the minimum non-tree edge
	// reconnecting the two sides of the cut left by removing e, or -1 if
	// e is a bridge (its weight can then grow without bound).
	Replacement []graph.EdgeID

	up   [][]int32        // binary lifting: up[k][u] is u's 2^k-th ancestor
	maxE [][]graph.EdgeID // max-key tree edge on the 2^k-step path above u
}

// Analyze computes the full sensitivity analysis of g. It sorts the
// edges once, with g.GlobalOrder(): Kruskal's tree and the covering walk
// that finds every tree edge's replacement both walk that order.
func Analyze(g *graph.Graph) (*Sensitivity, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("dynamic: empty graph")
	}
	s := &Sensitivity{
		G:           g,
		TreeRoot:    0,
		InTree:      make([]bool, g.M()),
		Parent:      make([]graph.NodeID, n),
		ParentEdge:  make([]graph.EdgeID, n),
		Depth:       make([]int, n),
		Replacement: make([]graph.EdgeID, g.M()),
	}
	for e := range s.Replacement {
		s.Replacement[e] = -1
	}
	if n == 1 {
		return s, nil
	}
	order := g.GlobalOrder()
	tree, err := mst.KruskalOrdered(g, order)
	if err != nil {
		return nil, fmt.Errorf("dynamic: %w", err)
	}
	s.Tree = tree
	for _, e := range tree {
		s.InTree[e] = true
	}
	// Root the tree at TreeRoot via BFS over tree edges only.
	adj := make([][]graph.EdgeID, n)
	for _, e := range tree {
		rec := g.Edge(e)
		adj[rec.U] = append(adj[rec.U], e)
		adj[rec.V] = append(adj[rec.V], e)
	}
	for u := range s.Parent {
		s.Parent[u], s.ParentEdge[u] = -1, -1
		s.Depth[u] = -1
	}
	s.Depth[s.TreeRoot] = 0
	queue := []graph.NodeID{s.TreeRoot}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range adj[u] {
			v := g.Other(e, u)
			if s.Depth[v] == -1 && v != s.TreeRoot {
				s.Depth[v] = s.Depth[u] + 1
				s.Parent[v] = u
				s.ParentEdge[v] = e
				queue = append(queue, v)
			}
		}
	}
	s.buildLifting()
	s.computeReplacements(order)
	return s, nil
}

// maxKeyEdge returns whichever of a, b has the larger global key (-1
// entries are neutral).
func (s *Sensitivity) maxKeyEdge(a, b graph.EdgeID) graph.EdgeID {
	if a == -1 {
		return b
	}
	if b == -1 {
		return a
	}
	if s.G.Key(a).Less(s.G.Key(b)) {
		return b
	}
	return a
}

func (s *Sensitivity) buildLifting() {
	n := s.G.N()
	levels := 1
	for 1<<uint(levels) < n {
		levels++
	}
	s.up = make([][]int32, levels)
	s.maxE = make([][]graph.EdgeID, levels)
	s.up[0] = make([]int32, n)
	s.maxE[0] = make([]graph.EdgeID, n)
	for u := 0; u < n; u++ {
		if s.Parent[u] == -1 {
			s.up[0][u] = int32(u)
			s.maxE[0][u] = -1
		} else {
			s.up[0][u] = int32(s.Parent[u])
			s.maxE[0][u] = s.ParentEdge[u]
		}
	}
	for k := 1; k < levels; k++ {
		s.up[k] = make([]int32, n)
		s.maxE[k] = make([]graph.EdgeID, n)
		for u := 0; u < n; u++ {
			mid := s.up[k-1][u]
			s.up[k][u] = s.up[k-1][mid]
			s.maxE[k][u] = s.maxKeyEdge(s.maxE[k-1][u], s.maxE[k-1][mid])
		}
	}
}

// PathMaxEdge returns the tree edge with the maximum global key on the
// tree path between u and v (-1 if u == v).
func (s *Sensitivity) PathMaxEdge(u, v graph.NodeID) graph.EdgeID {
	best := graph.EdgeID(-1)
	if s.Depth[u] < s.Depth[v] {
		u, v = v, u
	}
	for k := len(s.up) - 1; k >= 0; k-- {
		if s.Depth[u]-(1<<uint(k)) >= s.Depth[v] {
			best = s.maxKeyEdge(best, s.maxE[k][u])
			u = graph.NodeID(s.up[k][u])
		}
	}
	if u == v {
		return best
	}
	for k := len(s.up) - 1; k >= 0; k-- {
		if s.up[k][u] != s.up[k][v] {
			best = s.maxKeyEdge(best, s.maxE[k][u])
			best = s.maxKeyEdge(best, s.maxE[k][v])
			u, v = graph.NodeID(s.up[k][u]), graph.NodeID(s.up[k][v])
		}
	}
	best = s.maxKeyEdge(best, s.maxE[0][u])
	best = s.maxKeyEdge(best, s.maxE[0][v])
	return best
}

// computeReplacements assigns every tree edge its minimum covering
// non-tree edge: walking the non-tree edges in order (g.GlobalOrder(),
// the order Kruskal walked), each one covers the still-uncovered tree
// edges on its tree path. jump is an interval union-find: find(x) is
// the nearest ancestor-or-self of x whose parent edge is uncovered (or
// the root), and covering x's parent edge links x to its parent. The
// walk climbs from both endpoints, always advancing the deeper of the
// two, until they meet at the top of the covered stretch that holds
// the endpoints' lowest common ancestor, so it needs no LCA query;
// every tree edge is covered once, and the walk is O(m α) after the
// sort.
func (s *Sensitivity) computeReplacements(order []graph.EdgeID) {
	g := s.G
	jump := make([]int32, g.N())
	for u := range jump {
		jump[u] = int32(u)
	}
	find := func(x int32) int32 {
		for jump[x] != x {
			jump[x] = jump[jump[x]]
			x = jump[x]
		}
		return x
	}
	for _, f := range order {
		if s.InTree[f] {
			continue
		}
		rec := g.Edge(f)
		x, y := find(int32(rec.U)), find(int32(rec.V))
		for x != y {
			if s.Depth[x] < s.Depth[y] {
				x, y = y, x
			}
			s.Replacement[s.ParentEdge[x]] = f
			jump[x] = int32(s.Parent[x])
			x = find(x)
		}
	}
}

// keyWith is the global key edge e would have if its weight were w (the
// tie-break components never change with the weight).
func (s *Sensitivity) keyWith(e graph.EdgeID, w graph.Weight) graph.GlobalKey {
	k := s.G.Key(e)
	k.W = w
	return k
}

// WouldChange reports whether setting edge e's weight to w would change
// the MST edge set. Exact under ties: a tree edge leaves the MST iff its
// new key exceeds its replacement's, a non-tree edge enters iff its new
// key drops below its cycle's path maximum.
func (s *Sensitivity) WouldChange(e graph.EdgeID, w graph.Weight) bool {
	if s.InTree[e] {
		repl := s.Replacement[e]
		if repl == -1 {
			return false // bridge: always in the MST
		}
		return s.G.Key(repl).Less(s.keyWith(e, w))
	}
	rec := s.G.Edge(e)
	return s.keyWith(e, w).Less(s.G.Key(s.PathMaxEdge(rec.U, rec.V)))
}

// Tolerance returns the weight threshold at which edge e's MST status
// flips: for a tree edge, the weight its replacement holds (e may rise
// towards it); for a non-tree edge, the weight of the maximum tree edge
// on its cycle (e may fall towards it). bounded is false for bridges,
// whose weight can grow without bound.
func (s *Sensitivity) Tolerance(e graph.EdgeID) (limit graph.Weight, bounded bool) {
	if s.InTree[e] {
		repl := s.Replacement[e]
		if repl == -1 {
			return 0, false
		}
		return s.G.Weight(repl), true
	}
	rec := s.G.Edge(e)
	return s.G.Weight(s.PathMaxEdge(rec.U, rec.V)), true
}

// Slack returns the number of whole weight units edge e can move towards
// its tolerance before the MST can possibly change: upward slack for tree
// edges, downward slack for non-tree edges. bounded is false for bridges.
func (s *Sensitivity) Slack(e graph.EdgeID) (slack int64, bounded bool) {
	limit, ok := s.Tolerance(e)
	if !ok {
		return 0, false
	}
	if s.InTree[e] {
		return int64(limit) - int64(s.G.Weight(e)), true
	}
	return int64(s.G.Weight(e)) - int64(limit), true
}
