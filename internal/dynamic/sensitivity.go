// Package dynamic is the dynamic-network subsystem: batched weight
// updates and link failures on a live graph (via graph.ApplyBatch), an
// MST sensitivity oracle computing per-edge tolerances, and incremental
// recomputation of the Theorem 3 advice that re-encodes only the nodes
// whose fragment structure changed.
//
// The sensitivity notions follow the MST verification/sensitivity
// literature (Coy, Czumaj, Mishra, Mukherjee 2022; Balliu et al. 2023
// study how precomputed advice survives instance churn). Every edge e
// has one swap edge, the edge it trades MST membership with once e's
// (weight, tie-break) key crosses the swap's. For a tree edge that is
// its *replacement edge*, the minimum non-tree edge reconnecting the
// cut that removing e opens. For a non-tree edge it is the maximum tree
// edge on the tree path between its endpoints. Both are computed for
// every edge at once, over the global order Analyze sorts once. Cycle
// maxima come from Kruskal's own walk, on a union-find that keeps the
// order position of every link (O(m log n), integer compares), and
// replacements from the covering walk with interval union-find (O(m α)).
//
// All comparisons use the graph's intrinsic global order, so the answers
// are exact even under weight ties.
//
// See DESIGN.md §2.4 for the architecture of the dynamic subsystem.
package dynamic

import (
	"fmt"
	"math"

	"mstadvice/internal/graph"
	"mstadvice/internal/mst"
)

// Sensitivity is a snapshot analysis of one graph: its MST and every
// edge's swap edge. It answers WouldChange queries exactly as long as
// the tree edges keep their weights; any update accepted through an
// Advisor fast path preserves that, while full recomputes build a fresh
// analysis.
type Sensitivity struct {
	G *graph.Graph
	// InTree flags membership in the unique MST under the global order.
	InTree []bool
	// Swap[e] is the edge that trades MST membership with e once e's key
	// crosses Swap[e]'s. For a tree edge it is the minimum non-tree edge
	// reconnecting the two sides of the cut left by removing e, or -1 if
	// e is a bridge (its weight can then grow without bound). For a
	// non-tree edge it is the maximum tree edge on its cycle.
	Swap []graph.EdgeID
}

// Analyze computes the full sensitivity analysis of g. It sorts the
// edges once, with g.GlobalOrder(): Kruskal's walk, which also finds
// every non-tree edge's swap, and the covering walk, which finds every
// tree edge's, both walk that order.
func Analyze(g *graph.Graph) (*Sensitivity, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("dynamic: empty graph")
	}
	s := &Sensitivity{G: g, InTree: make([]bool, g.M()), Swap: make([]graph.EdgeID, g.M())}
	order := g.GlobalOrder()
	tree := s.kruskal(order)
	if len(tree) != n-1 {
		return nil, fmt.Errorf("dynamic: graph is disconnected (%d tree edges for %d nodes)", len(tree), n)
	}
	if err := s.cover(order, tree); err != nil {
		return nil, err
	}
	return s, nil
}

// kruskal walks order on a union-find linked by size and never
// path-compressed, flags and returns the tree edges, and gives every
// non-tree edge its swap. at[x] is the order position of the link above
// x (MaxInt32 at a root); a node is linked only while it is a root, so
// positions rise towards the root. A non-tree edge's endpoints are
// already joined: climbing from both, always through the earlier of the
// two links above, meets where the two endpoints were first joined, and
// the last link climbed is the one that joined them, which is the
// maximum tree edge on the edge's tree path. Linking by size keeps
// every climb within log₂ n links per endpoint.
func (s *Sensitivity) kruskal(order []graph.EdgeID) []graph.EdgeID {
	n := s.G.N()
	up := make([]int32, n) // the node above, or minus the set's size at a root
	at := make([]int32, n)
	for x := range up {
		up[x], at[x] = -1, math.MaxInt32
	}
	tree := make([]graph.EdgeID, 0, n-1)
	for i, e := range order {
		rec := s.G.Edge(e)
		x, y, last := int32(rec.U), int32(rec.V), int32(-1)
		for x != y {
			if at[x] > at[y] {
				x, y = y, x
			}
			if at[x] == math.MaxInt32 {
				break // two roots: e joins two sets
			}
			last, x = at[x], up[x]
		}
		if x == y {
			s.Swap[e] = order[last]
			continue
		}
		if up[x] > up[y] { // y's set is larger
			x, y = y, x
		}
		up[x] += up[y]
		up[y], at[y] = x, int32(i)
		s.InTree[e], s.Swap[e] = true, -1
		tree = append(tree, e)
	}
	return tree
}

// cover gives every tree edge its swap, the minimum non-tree edge
// covering it, in the tree mst.Root roots at node 0: walking the
// non-tree edges in order, each one covers the still-uncovered tree
// edges on its tree path. jump is an interval union-find: find(x) is
// the nearest ancestor-or-self of x whose parent edge is uncovered (or
// the root), and covering x's parent edge links x to its parent. The
// walk climbs from both endpoints, always advancing the deeper of the
// two, until they meet at the top of the covered stretch that holds the
// endpoints' lowest common ancestor, so it needs no LCA query; every
// tree edge is covered once, and the walk is O(m α).
func (s *Sensitivity) cover(order, tree []graph.EdgeID) error {
	g := s.G
	ports, err := mst.Root(g, tree, 0)
	if err != nil {
		return fmt.Errorf("dynamic: %w", err)
	}
	n := g.N()
	parent, parentEdge := make([]int32, n), make([]graph.EdgeID, n)
	depth, jump := make([]int32, n), make([]int32, n)
	for u, p := range ports {
		parent[u], parentEdge[u], depth[u], jump[u] = -1, -1, -1, int32(u)
		if p >= 0 {
			h := g.HalfAt(graph.NodeID(u), p)
			parent[u], parentEdge[u] = int32(h.To), h.Edge
		}
	}
	// Depths by memoized climbs: each node is stacked once.
	depth[0] = 0
	var stack []int32
	for u := range n {
		x := int32(u)
		for ; depth[x] < 0; x = parent[x] {
			stack = append(stack, x)
		}
		for d := depth[x]; len(stack) > 0; stack = stack[:len(stack)-1] {
			d++
			depth[stack[len(stack)-1]] = d
		}
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
			if depth[x] < depth[y] {
				x, y = y, x
			}
			s.Swap[parentEdge[x]] = f
			jump[x] = parent[x]
			x = find(x)
		}
	}
	return nil
}

// WouldChange reports whether setting edge e's weight to w would change
// the MST edge set. Exact under ties: a tree edge leaves the MST iff its
// new key exceeds its swap's, a non-tree edge enters iff its new key
// drops below its swap's, its cycle's maximum.
func (s *Sensitivity) WouldChange(e graph.EdgeID, w graph.Weight) bool {
	swap := s.Swap[e]
	if swap == -1 {
		return false // bridge: always in the MST
	}
	k := s.G.Key(e) // the tie-break components never change with the weight
	k.W = w
	if s.InTree[e] {
		return s.G.Key(swap).Less(k)
	}
	return k.Less(s.G.Key(swap))
}

// Tolerance returns the weight threshold at which edge e's MST status
// flips, the weight its swap holds: a tree edge may rise towards it, a
// non-tree edge may fall towards it. bounded is false for bridges,
// whose weight can grow without bound.
func (s *Sensitivity) Tolerance(e graph.EdgeID) (limit graph.Weight, bounded bool) {
	if swap := s.Swap[e]; swap != -1 {
		return s.G.Weight(swap), true
	}
	return 0, false
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
