package core

import (
	"math/rand"
	"testing"

	"mstadvice/internal/graph"
)

// mkNode returns a record and its parent's identifier, as add takes them.
func mkNode(id, parent int64, w graph.Weight, port, children int) (treeNode, int64) {
	return treeNode{id: id, w: w, portAtParent: int32(port), childCount: int32(children)}, parent
}

func newSubtree(rootID int64, children int) *subtree {
	s := &subtree{}
	s.reset(treeNode{id: rootID, childCount: int32(children)})
	return s
}

// bfsIDs returns the identifiers of the first limit nodes in BFS order.
func bfsIDs(s *subtree, limit int) []int64 {
	var ids []int64
	for _, i := range s.bfs(limit) {
		ids = append(ids, s.pool[i].id)
	}
	return ids
}

func TestSubtreeBFSOrder(t *testing.T) {
	// root 1 with children 2 (w=5,port=0), 3 (w=2,port=1), 4 (w=5,port=2);
	// BFS order must be 1, 3, 2, 4 (weight first, then port).
	s := newSubtree(1, 3)
	s.add(mkNode(2, 1, 5, 0, 0))
	s.add(mkNode(3, 1, 2, 1, 0))
	s.add(mkNode(4, 1, 5, 2, 0))
	want := []int64{1, 3, 2, 4}
	got := bfsIDs(s, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bfs = %v, want %v", got, want)
		}
	}
	if !s.complete() {
		t.Fatal("tree should be complete")
	}
	if lim := bfsIDs(s, 2); len(lim) != 2 || lim[1] != 3 {
		t.Fatalf("bfs(2) = %v", lim)
	}
}

func TestSubtreeIncomplete(t *testing.T) {
	s := newSubtree(1, 2)
	s.add(mkNode(2, 1, 1, 0, 0))
	if s.complete() {
		t.Fatal("missing child not detected")
	}
	s.add(mkNode(3, 1, 1, 1, 1)) // node 3 announces one child that never arrives
	if s.complete() {
		t.Fatal("missing grandchild not detected")
	}
	s.add(mkNode(4, 3, 1, 0, 0))
	if !s.complete() {
		t.Fatal("complete tree rejected")
	}
	if s.size() != 4 {
		t.Fatalf("size = %d", s.size())
	}
}

func TestSubtreeDuplicate(t *testing.T) {
	s := newSubtree(1, 1)
	if !s.add(mkNode(2, 1, 1, 0, 0)) {
		t.Fatal("first add rejected")
	}
	if s.add(mkNode(2, 1, 1, 0, 0)) {
		t.Fatal("duplicate accepted")
	}
}

// Prefix stability: when records are inserted in depth order (as the
// streaming convergecast guarantees), the BFS prefix of any size never
// reorders — new entries only append or extend deeper levels. This is the
// property that makes per-node quota pruning sound.
func TestSubtreePrefixStability(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		s := newSubtree(1, -1)
		// Build a random tree level by level.
		levels := [][]int64{{1}}
		next := int64(2)
		var history [][]int64
		const quota = 8
		for depth := 1; depth <= 4; depth++ {
			var level []int64
			for _, parent := range levels[depth-1] {
				kids := rng.Intn(3)
				for k := 0; k < kids; k++ {
					id := next
					next++
					s.add(treeNode{
						id:           id,
						w:            graph.Weight(rng.Intn(3)),
						portAtParent: int32(id), // unique per parent
						childCount:   -1,
					}, parent)
					level = append(level, id)
				}
			}
			levels = append(levels, level)
			history = append(history, bfsIDs(s, quota))
		}
		for i := 1; i < len(history); i++ {
			prev, cur := history[i-1], history[i]
			if len(cur) < len(prev) {
				t.Fatalf("trial %d: prefix shrank", trial)
			}
			for j := range prev {
				if prev[j] != cur[j] {
					t.Fatalf("trial %d: prefix reordered at %d: %v -> %v", trial, j, prev, cur)
				}
			}
		}
	}
}

// A hub's direct children arrive in port order, not in (weight, port)
// order. The child list must come out sorted however the children
// arrive, including children added after an earlier BFS, and a child
// whose parent never arrived must stay out of the order.
func TestSubtreeHubOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const k = 2000
	s := newSubtree(0, k)
	for p := 0; p < k; p++ {
		s.add(mkNode(int64(p+1), 0, graph.Weight(rng.Intn(50)), p, 0))
		if p == k/2 {
			s.bfs(0) // sorts the first half; the rest arrives afterwards
		}
	}
	s.add(mkNode(k+1, k+2, 1, 0, 0)) // orphan: parent k+2 never arrives
	order := s.bfs(0)
	if len(order) != k+1 || s.size() != k+2 {
		t.Fatalf("bfs covers %d of %d records", len(order), s.size())
	}
	for i := 2; i < len(order); i++ {
		if s.cmp(order[i-1], order[i]) >= 0 {
			t.Fatalf("children out of (weight, port) order at %d", i)
		}
	}
}
