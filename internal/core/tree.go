package core

import (
	"cmp"
	"slices"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
)

// none ends a child list and marks a missing link in the subtree pool.
const none int32 = -1

// treeNode is one node of a partially known fragment tree, assembled from
// convergecast records. childCount is -1 when unknown (final collect).
// The node's unconsumed packed advice is bits[off:], where bits is the
// owner's own advice string: the run never mutates advice, so records
// carry it by reference. parent, first, last and next are pool indices:
// the node's parent and its place in the parent's child list.
type treeNode struct {
	id                        int64
	w                         graph.Weight
	bits                      *bitstring.BitString
	off                       int32
	portAtParent              int32
	childCount                int32
	parent, first, last, next int32
	hop                       uint16 // ≤ the window's quota, at most 2⌈log n⌉
	bit                       bool
	unsorted                  bool // child list is out of (weight, port) order
}

// subtree incrementally assembles the fragment tree visible below one
// node in a pool of treeNodes, and produces its BFS order (children
// sorted by (weight, port at parent) — the paper's "lower index first"
// rule). Pool index 0 is the root; index maps identifiers to pool
// indices. A child is linked only after its parent, so every link points
// to a higher index and the pool holds no cycle.
//
// A subtree is reused across windows via reset: the index map, the pool
// and the order buffer keep their capacity, so a steady-state window
// allocates nothing.
type subtree struct {
	index map[int64]int32
	pool  []treeNode
	order []int32 // memoized BFS order, as pool indices
	stale bool    // order must be rebuilt
}

// reset clears the subtree for a new window, keeping allocated capacity,
// and installs the given root record. The root's own identifier is not
// indexed yet when add looks up its parent, so the root has none.
func (s *subtree) reset(root treeNode) {
	if s.index == nil {
		s.index = make(map[int64]int32)
	} else {
		clear(s.index)
	}
	s.pool = s.pool[:0]
	s.order = s.order[:0]
	s.add(root, root.id)
}

// add inserts a record as a child of the node named parentID; it returns
// false for duplicates. A record whose parent is unknown (its record was
// lost) stays unlinked, so BFS never reaches it. Children are appended
// to their parent's list: siblings relayed by one child arrive already
// sorted, while a parent's direct children arrive in port order, so a
// list that receives a child out of order is flagged and sorted once, at
// the next BFS rebuild.
func (s *subtree) add(t treeNode, parentID int64) bool {
	if _, dup := s.index[t.id]; dup {
		return false
	}
	p, linked := s.index[parentID]
	if !linked {
		p = none
	}
	i := int32(len(s.pool))
	t.parent, t.first, t.last, t.next, t.unsorted = p, none, none, none, false
	s.pool = append(s.pool, t)
	s.index[t.id] = i
	if linked {
		par := &s.pool[p]
		if par.last == none {
			par.first = i
		} else {
			par.unsorted = par.unsorted || s.cmp(i, par.last) < 0
			s.pool[par.last].next = i
		}
		par.last = i
	}
	s.stale = true
	return true
}

// parentID is the identifier a forwarded record names as its parent. The
// root's record is this node's own: its parent is unknown here, and the
// receiving parent fills it in.
func (s *subtree) parentID(i int32) int64 {
	if i == 0 {
		return annotatePending
	}
	return s.pool[s.pool[i].parent].id
}

// cmp orders siblings by (weight, port at parent); the key is strict
// because siblings hang off distinct parent ports.
func (s *subtree) cmp(a, b int32) int {
	x, y := &s.pool[a], &s.pool[b]
	return cmp.Or(cmp.Compare(x.w, y.w), cmp.Compare(x.portAtParent, y.portAtParent))
}

// sortKids sorts ks, the whole child list of p, and relinks the list in
// that order.
func (s *subtree) sortKids(p int32, ks []int32) {
	slices.SortFunc(ks, s.cmp)
	for k, c := range ks[:len(ks)-1] {
		s.pool[c].next = ks[k+1]
	}
	par := &s.pool[p]
	par.first, par.last, par.unsorted = ks[0], ks[len(ks)-1], false
	s.pool[par.last].next = none
}

func (s *subtree) size() int { return len(s.pool) }

// bfs returns the first limit pool indices of the subtree's BFS order
// (limit <= 0 means no limit). The order is memoized and only rebuilt
// after new records arrive; the returned slice is valid until the next
// add or reset and must not be modified.
func (s *subtree) bfs(limit int) []int32 {
	if s.stale {
		// The order slice doubles as the BFS queue: entry qi is expanded
		// after it has been appended, so no separate queue is needed.
		order := append(s.order[:0], 0)
		for qi := 0; qi < len(order); qi++ {
			p, start := order[qi], len(order)
			for c := s.pool[p].first; c != none; c = s.pool[c].next {
				order = append(order, c)
			}
			if s.pool[p].unsorted {
				s.sortKids(p, order[start:])
			}
		}
		s.order = order
		s.stale = false
	}
	if limit > 0 && limit < len(s.order) {
		return s.order[:limit:limit]
	}
	return s.order
}

// complete reports whether every known node's announced child count is
// satisfied, i.e. the whole fragment tree has been received. Only
// meaningful when records carry child counts.
func (s *subtree) complete() bool {
	for i := range s.pool {
		t := &s.pool[i]
		kids := int32(0)
		for c := t.first; c != none; c = s.pool[c].next {
			kids++
		}
		if t.childCount < 0 || t.childCount != kids {
			return false
		}
	}
	return true
}
