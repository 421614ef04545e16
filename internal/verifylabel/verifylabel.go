// Package verifylabel implements a distributed, one-round verifier for
// the rooted-tree outputs of the advising schemes, in the style of
// proof-labeling schemes (Korman, Kutten, Peleg): an oracle assigns every
// node a short label; one exchange of labels lets each node check, purely
// locally, that the claimed parent ports globally encode a spanning tree
// of the network rooted at a single node.
//
// The labels are the folklore spanning-tree certificate
// (root identifier, depth), of size O(log n) bits:
//
//   - the root accepts iff its parent port is -1 and its depth is 0;
//   - every other node accepts iff its parent's label shows the same root
//     identifier and depth exactly one less than its own.
//
// If every node accepts, the parent pointers are acyclic (depths strictly
// decrease towards a depth-0 node), reach a single root (root identifiers
// agree along tree edges of a connected graph... every node's chain ends
// at a node of depth 0 claiming itself as root, and label equality along
// the chain forces that to be the named root), and hence form a spanning
// tree. If any label or parent pointer is corrupted, at least one node
// rejects — the classical soundness property, exercised in the tests.
//
// Verifying *minimality* in one round additionally requires
// Ω(log² n)-bit labels (Korman–Kutten); that is a different paper's
// contribution and deliberately out of scope — the repository verifies
// minimality centrally in package mst instead.
//
// See DESIGN.md §2.2 for how scheme outputs are verified against the
// unique reference MST this certificate complements.
package verifylabel

import (
	"fmt"

	"mstadvice/internal/graph"
	"mstadvice/internal/mst"
	"mstadvice/internal/sim"
)

// Label is one node's spanning-tree certificate.
type Label struct {
	RootID int64
	Depth  int
}

// Assign computes the labels certifying the given parent-port output
// (which must be a rooted spanning tree; Assign validates it).
func Assign(g *graph.Graph, parentPort []int) ([]Label, error) {
	edges, err := mst.EdgesFromParentPorts(g, parentPort)
	if err != nil {
		return nil, err
	}
	if !mst.IsSpanningTree(g, edges) {
		return nil, fmt.Errorf("verifylabel: parent ports do not form a spanning tree")
	}
	root := graph.NodeID(-1)
	for u, p := range parentPort {
		if p == -1 {
			root = graph.NodeID(u)
		}
	}
	labels := make([]Label, g.N())
	depth := make([]int, g.N())
	for i := range depth {
		depth[i] = -1
	}
	depth[root] = 0
	// Parent pointers are a function; compute depths by chasing with
	// memoization.
	var chase func(u graph.NodeID) int
	chase = func(u graph.NodeID) int {
		if depth[u] >= 0 {
			return depth[u]
		}
		parent := g.HalfAt(u, parentPort[u]).To
		depth[u] = chase(parent) + 1
		return depth[u]
	}
	for u := 0; u < g.N(); u++ {
		labels[u] = Label{RootID: g.ID(root), Depth: chase(graph.NodeID(u))}
	}
	return labels, nil
}

// labelMsg carries a node's label to its neighbours.
type labelMsg struct {
	L Label
}

func (labelMsg) SizeBits(cm sim.CostModel) int { return 2 * cm.IDBits }

// Verifier is the one-round distributed checker for one node.
type Verifier struct {
	parentPort int
	label      Label
	accept     bool
	done       bool
}

// NewVerifier builds the checker for a node claiming the given parent
// port and holding the given label.
func NewVerifier(parentPort int, label Label) *Verifier {
	return &Verifier{parentPort: parentPort, label: label}
}

// Start sends the label to every neighbour.
func (v *Verifier) Start(ctx *sim.Ctx, view *sim.NodeView) []sim.Send {
	sends := ctx.Out[:0]
	for p := 0; p < view.Deg; p++ {
		sends = append(sends, sim.Send{Port: p, Msg: labelMsg{L: v.label}})
	}
	return sends
}

// Round checks the received labels after the single exchange. Root-ID
// agreement is checked against every neighbour — not just the parent —
// which is what rules out two disjoint accepted trees on a connected
// graph: any edge between them would see two root identifiers.
func (v *Verifier) Round(ctx *sim.Ctx, view *sim.NodeView, inbox []sim.Received) []sim.Send {
	if v.done {
		return nil
	}
	v.done = true
	if len(inbox) != view.Deg {
		v.accept = false // a silent neighbour is a rejection
		return nil
	}
	parentOK := v.parentPort == -1 && v.label.Depth == 0 && v.label.RootID == view.ID
	for _, rcv := range inbox {
		m, ok := rcv.Msg.(labelMsg)
		if !ok {
			v.accept = false
			return nil
		}
		if m.L.RootID != v.label.RootID {
			v.accept = false
			return nil
		}
		if rcv.Port == v.parentPort {
			parentOK = m.L.Depth == v.label.Depth-1 && v.label.Depth > 0
		}
	}
	v.accept = parentOK
	return nil
}

// Output abuses the parent-port slot to report the verdict: 1 accept,
// 0 reject. Use Accepted for the typed answer.
func (v *Verifier) Output() (int, bool) {
	if v.accept {
		return 1, v.done
	}
	return 0, v.done
}

// Accepted reports this node's verdict after the run.
func (v *Verifier) Accepted() bool { return v.accept }

// Check runs the full one-round verification of a claimed output on g:
// it assigns labels (optionally corrupted by the caller mutating them)
// and returns per-node verdicts plus the global AND.
func Check(g *graph.Graph, parentPort []int, labels []Label) (allAccept bool, verdicts []bool, err error) {
	if len(labels) != g.N() || len(parentPort) != g.N() {
		return false, nil, fmt.Errorf("verifylabel: need %d labels and ports", g.N())
	}
	verifiers := make([]*Verifier, g.N())
	next := 0
	factory := func(view *sim.NodeView) sim.Node {
		v := NewVerifier(parentPort[next], labels[next])
		verifiers[next] = v
		next++
		return v
	}
	nw := sim.NewNetwork(g)
	if _, err := nw.Run(factory, nil, sim.Options{}); err != nil {
		return false, nil, err
	}
	verdicts = make([]bool, g.N())
	allAccept = true
	for u, v := range verifiers {
		verdicts[u] = v.Accepted()
		allAccept = allAccept && v.Accepted()
	}
	return allAccept, verdicts, nil
}
