package hier

import (
	"testing"

	"mstadvice/internal/graph"
)

// TestSubtreeHubOrder feeds a root k children whose records arrive in
// reverse (weight, port) order, with pairs of siblings tied on weight:
// bfs must list them in increasing (weight, port at the parent) order.
func TestSubtreeHubOrder(t *testing.T) {
	const k = 3000
	s := newSubtree(0, k, nil)
	for i := 0; i < k; i++ {
		port := k - 1 - i
		s.add(hierRec{ID: int64(i + 1), ParentID: 0, W: graph.Weight(port / 2), PortAtParent: port})
	}
	if !s.complete() || s.size() != k+1 {
		t.Fatalf("complete=%v size=%d, want a complete tree of %d nodes", s.complete(), s.size(), k+1)
	}
	order := s.bfs(k + 1)
	if len(order) != k+1 || order[0] != s.root {
		t.Fatalf("bfs returned %d nodes starting at %d", len(order), order[0].id)
	}
	for i := 1; i < len(order); i++ {
		if order[i].portAtParent != i-1 {
			t.Fatalf("bfs position %d holds port %d, want %d", i, order[i].portAtParent, i-1)
		}
	}
}
