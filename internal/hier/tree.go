package hier

import (
	"cmp"
	"slices"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
)

// treeNode is one collected member of the fragment tree at the root.
type treeNode struct {
	id           int64
	w            graph.Weight
	portAtParent int
	childCount   int
	bits         *bitstring.BitString
	kids         []*treeNode
}

// subtree reconstructs the fragment tree from convergecast records at
// the fragment root. Children are appended as their records arrive and
// bfs sorts them once by (parent-edge weight, port at the parent) — the
// key is strict because siblings hang off distinct parent ports — so the
// BFS order matches the oracle's fragmentBFS exactly and a hub with k
// children costs O(k log k).
type subtree struct {
	root  *treeNode
	nodes map[int64]*treeNode
}

func newSubtree(rootID int64, childCount int, bits *bitstring.BitString) *subtree {
	r := &treeNode{id: rootID, childCount: childCount, bits: bits}
	return &subtree{root: r, nodes: map[int64]*treeNode{rootID: r}}
}

// add inserts one record. Records arrive in increasing depth (depth-d
// records reach the root exactly d rounds after depth-1 ones), so the
// parent is always present; a record whose parent is missing or that
// duplicates a known node is ignored.
func (s *subtree) add(r hierRec) {
	p, ok := s.nodes[r.ParentID]
	if !ok {
		return
	}
	if _, dup := s.nodes[r.ID]; dup {
		return
	}
	tn := &treeNode{id: r.ID, w: r.W, portAtParent: r.PortAtParent, childCount: r.ChildCount, bits: r.Bits}
	s.nodes[r.ID] = tn
	p.kids = append(p.kids, tn)
}

// childLess orders siblings by (parent-edge weight, port at the parent).
func childLess(a, b *treeNode) int {
	if c := cmp.Compare(a.w, b.w); c != 0 {
		return c
	}
	return cmp.Compare(a.portAtParent, b.portAtParent)
}

// size returns the number of collected nodes.
func (s *subtree) size() int { return len(s.nodes) }

// complete reports whether every collected node has all its fragment
// children collected — i.e. whether the hop-truncated convergecast in
// fact captured the whole fragment.
func (s *subtree) complete() bool {
	for _, tn := range s.nodes {
		if len(tn.kids) != tn.childCount {
			return false
		}
	}
	return true
}

// bfs returns the first limit collected nodes in BFS order from the
// root (fewer when the tree is smaller), sorting each expanded node's
// children first.
func (s *subtree) bfs(limit int) []*treeNode {
	order := make([]*treeNode, 0, limit)
	order = append(order, s.root)
	for qi := 0; qi < len(order) && len(order) < limit; qi++ {
		slices.SortFunc(order[qi].kids, childLess)
		for _, kid := range order[qi].kids {
			order = append(order, kid)
			if len(order) == limit {
				break
			}
		}
	}
	return order
}
