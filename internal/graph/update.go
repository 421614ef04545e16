package graph

import (
	"fmt"
	"slices"
)

// Dynamic updates. A built Graph is immutable to its algorithms, but the
// dynamic-network subsystem (internal/dynamic) mutates its own private
// copy through the batched API below, which patches the CSR adjacency
// and the edge records in place instead of rebuilding the graph from
// scratch.
//
// Semantics:
//
//   - a weight update rewrites the edge record, the one place a weight
//     lives, in O(1); ports, edge IDs and the CSR layout are untouched,
//     so the result is byte-identical to rebuilding the graph from its
//     original edge list with the new weights;
//   - a deletion swap-removes: within each endpoint's adjacency the last
//     port moves into the freed port, and in the edge array the last
//     edge ID moves into the freed ID. At most two edges change a port
//     and one edge changes its ID per deletion; all invariants
//     (validate) are restored in place. Callers holding edge IDs or
//     ports across a deletion must account for the renumbering.
//
// ApplyBatch validates the whole batch — including connectivity after
// the deletions — before touching the graph, so a failed batch leaves
// the graph exactly as it was.

// WeightUpdate assigns a new weight to one edge.
type WeightUpdate struct {
	Edge EdgeID
	W    Weight
}

// Batch is one atomic set of updates: weight changes are applied first
// (in order), then deletions. Deletions are identified by edge IDs valid
// before the batch.
type Batch struct {
	Weights   []WeightUpdate
	Deletions []EdgeID
}

// Empty reports whether the batch contains no updates.
func (b Batch) Empty() bool { return len(b.Weights) == 0 && len(b.Deletions) == 0 }

// ApplyBatch applies the batch in place. It returns an error — and leaves
// the graph unmodified — if any edge ID is out of range, a weight is not
// positive, a deletion target repeats, or the deletions would disconnect
// the graph.
func (g *Graph) ApplyBatch(b Batch) error {
	m := len(g.edges)
	for _, wu := range b.Weights {
		if int(wu.Edge) < 0 || int(wu.Edge) >= m {
			return fmt.Errorf("graph: weight update on edge %d out of range [0,%d)", wu.Edge, m)
		}
		if wu.W < 1 {
			return fmt.Errorf("graph: weight update on edge %d with non-positive weight %d", wu.Edge, wu.W)
		}
	}
	if len(b.Deletions) > 0 {
		del := make(map[EdgeID]bool, len(b.Deletions))
		for _, e := range b.Deletions {
			if int(e) < 0 || int(e) >= m {
				return fmt.Errorf("graph: deletion of edge %d out of range [0,%d)", e, m)
			}
			if del[e] {
				return fmt.Errorf("graph: edge %d deleted twice in one batch", e)
			}
			del[e] = true
		}
		if err := g.connectedWithout(del); err != nil {
			return err
		}
	}
	for _, wu := range b.Weights {
		g.setWeight(wu.Edge, wu.W)
	}
	if len(b.Deletions) > 0 {
		// Descending order keeps every remaining target ID valid: a
		// swap-remove only moves the current last edge, whose ID exceeds
		// all still-pending (distinct, smaller) targets.
		targets := slices.Clone(b.Deletions)
		slices.Sort(targets)
		slices.Reverse(targets)
		for _, e := range targets {
			g.deleteEdge(e)
		}
	}
	return nil
}

// connectedWithout verifies the graph stays connected once the edges in
// del are removed.
func (g *Graph) connectedWithout(del map[EdgeID]bool) error {
	n := g.N()
	if n == 0 {
		return nil
	}
	if len(g.edges)-len(del) < n-1 {
		return fmt.Errorf("graph: deleting %d edges leaves fewer than n-1 = %d", len(del), n-1)
	}
	visited := make([]bool, n)
	visited[0] = true
	stack := []NodeID{0}
	seen := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Ports(u) {
			if v, _ := g.far(e, u); !visited[v] && !del[e] {
				visited[v] = true
				seen++
				stack = append(stack, v)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("graph: deletion batch disconnects the graph (%d of %d nodes reachable)", seen, n)
	}
	return nil
}

// setWeight rewrites the weight on the edge record.
func (g *Graph) setWeight(e EdgeID, w Weight) { g.edges[e].W = w }

// deleteEdge removes edge e by swap-remove at both endpoints and in the
// edge array. The CSR offsets are left untouched (each node's segment
// simply shrinks from the right by one in deg), so HalfOffset-based flat
// buffers stay valid.
func (g *Graph) deleteEdge(e EdgeID) {
	rec := g.edges[e]
	g.removeHalf(rec.U, rec.PU)
	g.removeHalf(rec.V, rec.PV)
	last := EdgeID(len(g.edges) - 1)
	if e != last {
		moved := g.edges[last]
		g.edges[e] = moved
		g.adj[g.off[moved.U]+moved.PU] = e
		g.adj[g.off[moved.V]+moved.PV] = e
	}
	g.edges = g.edges[:last]
}

// removeHalf swap-removes the half-edge at (u, port): the edge at the
// last port moves into port, its record's port at u is patched, the
// freed slot is marked -1, and u's degree shrinks by one.
func (g *Graph) removeHalf(u NodeID, port int32) {
	base := g.off[u]
	last := g.deg[u] - 1
	if port != last {
		moved := g.adj[base+last]
		g.adj[base+port] = moved
		if mrec := &g.edges[moved]; mrec.U == u {
			mrec.PU = port
		} else {
			mrec.PV = port
		}
	}
	g.adj[base+last] = -1
	g.deg[u] = last
}

// Clone returns a deep copy of the graph sharing no storage with g, so
// one copy can be patched while the other stays pristine.
func (g *Graph) Clone() *Graph {
	return &Graph{
		adj:   slices.Clone(g.adj),
		off:   slices.Clone(g.off),
		deg:   slices.Clone(g.deg),
		edges: slices.Clone(g.edges),
		ids:   slices.Clone(g.ids),
	}
}

// Reweighted returns the graph whose edge records are edges, when they
// name g's endpoints and ports edge for edge and differ from g's at most
// in their weights: the graph a weight-only batch leaves. It shares g's
// CSR and identifiers and takes ownership of edges, so it costs neither
// a copy nor a validation pass; it returns false, and builds nothing,
// when the lengths or any endpoint or port differ. Sharing is safe because
// published and decoded graphs are never mutated: to patch either one,
// ApplyBatch a Clone.
func (g *Graph) Reweighted(edges []Edge) (*Graph, bool) {
	if len(edges) != len(g.edges) {
		return nil, false
	}
	for i := range edges {
		a, b := &edges[i], &g.edges[i]
		if a.U != b.U || a.V != b.V || a.PU != b.PU || a.PV != b.PV {
			return nil, false
		}
	}
	return &Graph{adj: g.adj, off: g.off, deg: g.deg, edges: edges, ids: g.ids}, true
}
