package reference

import (
	"cmp"
	"slices"

	"mstadvice/internal/graph"
)

// Fragment is one fragment of the §2.2 Borůvka decomposition at the
// start of a phase. An active fragment (|F| < 2^i at phase i) selects
// Edge, its minimum outgoing edge under the intrinsic order, at Chooser,
// its endpoint in the fragment; Up says whether Edge is Chooser's parent
// edge. Root is the member whose parent edge leaves the fragment, Level
// the parity of the fragment's depth in the tree of fragments, and BFS
// the fragment's subtree from Root, children by (parent-edge weight,
// port at the parent).
type Fragment struct {
	Nodes   []graph.NodeID // ascending
	Active  bool
	HasSel  bool
	Chooser graph.NodeID
	Edge    graph.EdgeID
	Up      bool
	Root    graph.NodeID
	Level   int
	BFS     []graph.NodeID
}

// Boruvka simulates the deterministic Borůvka variant of §2.2 naively
// on a connected g, against Kruskal(g) rooted at root by Parents: at
// phase i (from 1) every fragment with |F| < 2^i selects its minimum
// outgoing edge, and the selections merge. It returns the fragments at
// the start of each phase, phases[i-1] for phase i, and last the single
// spanning fragment the final phase leaves (the only entry when n = 1),
// each phase's fragments by smallest member.
func Boruvka(g *graph.Graph, root graph.NodeID) [][]Fragment {
	n := g.N()
	ports := Parents(g, root)
	parent, parentEdge := make([]graph.NodeID, n), make([]graph.EdgeID, n)
	for u := range graph.NodeID(n) {
		parent[u], parentEdge[u] = -1, -1
		if ports[u] >= 0 {
			parentEdge[u] = g.Ports(u)[ports[u]]
			parent[u] = g.Other(parentEdge[u], u)
		}
	}
	label := make([]graph.NodeID, n) // each node's fragment, by smallest member
	for u := range label {
		label[u] = graph.NodeID(u)
	}
	edges := g.Edges()
	var phases [][]Fragment
	for i := 1; ; i++ {
		var frags []Fragment
		index := map[graph.NodeID]int{} // label -> fragment
		for u := range graph.NodeID(n) {
			if label[u] == u {
				index[u] = len(frags)
				frags = append(frags, Fragment{})
			}
			f := &frags[index[label[u]]]
			f.Nodes = append(f.Nodes, u)
			if parent[u] == -1 || label[parent[u]] != label[u] {
				f.Root = u
			}
		}
		for fi := range frags {
			f := &frags[fi]
			// The depth is the number of fragment boundaries on the tree
			// path from the fragment's root to the global root.
			for r := f.Root; parent[r] != -1; r = frags[index[label[parent[r]]]].Root {
				f.Level ^= 1
			}
			f.BFS = []graph.NodeID{f.Root}
			for qi := 0; qi < len(f.BFS); qi++ {
				u := f.BFS[qi]
				var kids []graph.NodeID
				for _, c := range f.Nodes {
					if parent[c] == u {
						kids = append(kids, c)
					}
				}
				slices.SortFunc(kids, func(a, b graph.NodeID) int {
					ea, eb := parentEdge[a], parentEdge[b]
					return cmp.Or(cmp.Compare(g.Weight(ea), g.Weight(eb)), cmp.Compare(g.PortAt(ea, u), g.PortAt(eb, u)))
				})
				f.BFS = append(f.BFS, kids...)
			}
		}
		if len(frags) == 1 {
			frags[0].Active = false
			return append(phases, frags)
		}
		for fi := range frags {
			frags[fi].Active = len(frags[fi].Nodes) < 1<<i
		}
		for e, rec := range edges {
			for _, u := range [2]graph.NodeID{rec.U, rec.V} {
				f := &frags[index[label[u]]]
				if label[rec.U] != label[rec.V] && f.Active && (!f.HasSel || compareEdges(g, rec, edges[f.Edge]) < 0) {
					f.HasSel, f.Edge, f.Chooser, f.Up = true, graph.EdgeID(e), u, parentEdge[u] == graph.EdgeID(e)
				}
			}
		}
		phases = append(phases, frags)
		for _, f := range frags {
			if !f.HasSel {
				continue
			}
			a, b := label[edges[f.Edge].U], label[edges[f.Edge].V]
			for u := range label {
				if label[u] == max(a, b) {
					label[u] = min(a, b)
				}
			}
		}
	}
}
