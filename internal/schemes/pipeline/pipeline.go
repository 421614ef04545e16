// Package pipeline implements the classic no-advice "pipeline" MST
// baseline (Peleg, Distributed Computing: A Locality-Sensitive Approach,
// ch. 5): elect the minimum-ID node as leader, build its BFS tree, upcast
// every edge towards the leader in nondecreasing weight order — each node
// forwarding at most one record per round and filtering out edges that
// close a cycle with what it already forwarded — and finally downcast the
// per-node parent assignments.
//
// The cycle filter guarantees each node forwards at most n-1 records, so
// the whole run takes O(n + D) rounds with messages of O(log n) bits:
// unlike localgather it respects CONGEST, and unlike the fragment-growing
// noadvice baseline its round count is Θ(n) even on low-diameter graphs.
// Together the three baselines bracket the no-advice design space that
// the paper's 12-bit scheme escapes.
//
// Correctness of the filter is the standard matroid argument: a node's
// forwarded stream is exactly the minimum spanning forest of the edges
// originating in its BFS subtree, merged in nondecreasing global order,
// so the leader collects exactly MST(G).
//
// See DESIGN.md §2.2 for the scheme framework and the baseline
// bracketing of the no-advice design space.
package pipeline

import (
	"fmt"
	"slices"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/localorder"
	"mstadvice/internal/sim"
)

// Scheme is the zero-advice pipeline baseline. The zero value is ready to
// use.
type Scheme struct{}

// Name implements advice.Scheme.
func (Scheme) Name() string { return "pipeline" }

// NeedsPulses reports that the decoder is self-timed and uses the
// simulator's quiescence synchronizer (once, after leader election).
func (Scheme) NeedsPulses() bool { return true }

// Advise implements advice.Scheme: no advice.
func (Scheme) Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error) {
	return nil, nil
}

// NewNode implements advice.Scheme.
func (Scheme) NewNode(view *sim.NodeView) sim.Node {
	return &node{
		nbrID:      make([]int64, view.Deg),
		nbrPort:    make([]int, view.Deg),
		bfsParent:  -1,
		children:   make(map[int]bool),
		childQ:     make(map[int][]edgeRec),
		childDone:  make(map[int]bool),
		parentPort: -1,
	}
}

// edgeRec is a full undirected edge record, canonicalised so AID < BID.
type edgeRec struct {
	AID, BID     int64
	APort, BPort int
	W            graph.Weight
}

func (r edgeRec) key() graph.GlobalKey {
	return graph.GlobalKey{W: r.W, MinID: r.AID, PortAtMin: r.APort}
}

// --- messages (all O(log n) bits) ---

type helloMsg struct {
	ID   int64
	Port int
}

func (helloMsg) SizeBits(cm sim.CostModel) int { return cm.IDBits + cm.PortBits }

type electMsg struct {
	Root int64
	Dist int
}

func (electMsg) SizeBits(cm sim.CostModel) int { return 2 * cm.IDBits }

type annMsg struct{}

func (annMsg) SizeBits(sim.CostModel) int { return 1 }

type upEdgeMsg struct{ Rec edgeRec }

func (upEdgeMsg) SizeBits(cm sim.CostModel) int {
	return 2*cm.IDBits + 2*cm.PortBits + cm.WeightBits
}

type upDoneMsg struct{}

func (upDoneMsg) SizeBits(sim.CostModel) int { return 1 }

type downAsgMsg struct {
	Node int64
	Port int
}

func (downAsgMsg) SizeBits(cm sim.CostModel) int { return cm.IDBits + cm.PortBits }

type downEndMsg struct{}

func (downEndMsg) SizeBits(sim.CostModel) int { return 1 }

// --- node state machine ---

type node struct {
	// setup
	nbrID   []int64
	nbrPort []int

	// leader election / BFS tree
	root      int64
	dist      int
	bfsParent int
	improved  bool // tuple changed this round: rebroadcast once
	elected   bool // pulse seen: tree is final
	leader    bool
	children  map[int]bool

	// upcast
	ownQ      []edgeRec // own incident edges, ascending key
	ownIdx    int
	childQ    map[int][]edgeRec // buffered streams, ascending key
	childDone map[int]bool
	upDone    bool
	filter    *idDSU
	collected []edgeRec // leader only: accepted records

	// downcast
	downQ      []interface{} // downAsgMsg / downEndMsg
	downEnded  bool
	haveOutput bool
	parentPort int
	done       bool
}

func (n *node) Start(ctx *sim.Ctx, view *sim.NodeView) []sim.Send {
	n.root = view.ID
	if view.N <= 1 {
		n.haveOutput = true
		n.done = true
		return nil
	}
	sends := ctx.Out[:0]
	for p := 0; p < view.Deg; p++ {
		sends = append(sends, sim.Send{Port: p, Msg: helloMsg{ID: view.ID, Port: p}})
	}
	return sends
}

func (n *node) Round(ctx *sim.Ctx, view *sim.NodeView, inbox []sim.Received) []sim.Send {
	if n.done {
		return nil
	}
	for _, rcv := range inbox {
		n.receive(view, rcv)
	}
	sends := ctx.Out[:0]
	if !n.elected {
		if ctx.Round == 1 {
			n.improved = true // hellos processed; open the election
		}
		if n.improved {
			// Broadcast the final tuple of this round exactly once per port.
			n.improved = false
			for p := 0; p < view.Deg; p++ {
				sends = append(sends, sim.Send{Port: p, Msg: electMsg{Root: n.root, Dist: n.dist}})
			}
		}
		if ctx.Pulse >= 1 {
			// Quiescence: the BFS tree under the minimum ID is final.
			n.elected = true
			n.leader = n.root == view.ID
			n.prepareUpcast(view)
			if n.bfsParent != -1 {
				sends = append(sends, sim.Send{Port: n.bfsParent, Msg: annMsg{}})
			}
		}
		return sends
	}
	sends = n.pumpUpcast(view, sends)
	sends = n.pumpDowncast(sends)
	if n.haveOutput && n.upDone && len(n.downQ) == 0 && n.downEnded {
		n.done = true
	}
	return sends
}

func (n *node) receive(view *sim.NodeView, rcv sim.Received) {
	switch m := rcv.Msg.(type) {
	case helloMsg:
		n.nbrID[rcv.Port] = m.ID
		n.nbrPort[rcv.Port] = m.Port

	case electMsg:
		if m.Root < n.root || (m.Root == n.root && m.Dist+1 < n.dist) {
			n.root = m.Root
			n.dist = m.Dist + 1
			n.bfsParent = rcv.Port
			n.improved = true // rebroadcast after the whole inbox is merged
		}

	case annMsg:
		n.children[rcv.Port] = true
		delete(n.childDone, rcv.Port) // ensure tracked
		n.childDone[rcv.Port] = false

	case upEdgeMsg:
		n.childQ[rcv.Port] = append(n.childQ[rcv.Port], m.Rec)

	case upDoneMsg:
		n.childDone[rcv.Port] = true

	case downAsgMsg:
		if m.Node == view.ID {
			n.parentPort = m.Port
			n.haveOutput = true
		}
		n.downQ = append(n.downQ, m)

	case downEndMsg:
		n.downQ = append(n.downQ, m)

	default:
		panic(fmt.Sprintf("pipeline: unexpected message %T", rcv.Msg))
	}
}

// prepareUpcast sorts this node's incident edges by the global order.
func (n *node) prepareUpcast(view *sim.NodeView) {
	n.filter = newIDDSU()
	ports := localorder.PortsByGlobal(view.PortW, view.ID, func(p int) (int64, int) { return n.nbrID[p], n.nbrPort[p] })
	for _, p := range ports {
		rec := edgeRec{AID: view.ID, APort: p, BID: n.nbrID[p], BPort: n.nbrPort[p], W: view.PortW[p]}
		if rec.AID > rec.BID {
			rec.AID, rec.BID = rec.BID, rec.AID
			rec.APort, rec.BPort = rec.BPort, rec.APort
		}
		n.ownQ = append(n.ownQ, rec)
	}
}

// pumpUpcast emits at most one useful record per round once every child
// stream has a buffered head or has ended. Skipped records (cycle-closing
// under the local filter) are consumed without being forwarded, so one
// call may discard many but sends at most one, appended to sends.
func (n *node) pumpUpcast(view *sim.NodeView, sends []sim.Send) []sim.Send {
	if n.upDone {
		return sends
	}
	for {
		source, rec, ok := n.minHead()
		if !ok {
			if n.allStreamsEnded() {
				n.upDone = true
				if n.leader {
					n.startDowncast(view)
					return sends
				}
				return append(sends, sim.Send{Port: n.bfsParent, Msg: upDoneMsg{}})
			}
			return sends // a child stream is momentarily empty: wait
		}
		n.pop(source)
		if !n.filter.union(rec.AID, rec.BID) {
			continue // closes a cycle: discard and look again this round
		}
		if n.leader {
			n.collected = append(n.collected, rec)
			continue // the leader only collects
		}
		return append(sends, sim.Send{Port: n.bfsParent, Msg: upEdgeMsg{Rec: rec}})
	}
}

// minHead returns the smallest-key record over the own queue and all
// child buffers, but only when every active child has a visible head
// (needed to preserve the global nondecreasing merge order).
func (n *node) minHead() (source int, rec edgeRec, ok bool) {
	for p, done := range n.childDone {
		if !done && len(n.childQ[p]) == 0 {
			return 0, edgeRec{}, false
		}
	}
	source = -2 // -1 = own queue, port otherwise
	for p := range n.childDone {
		if len(n.childQ[p]) == 0 {
			continue
		}
		head := n.childQ[p][0]
		if source == -2 || head.key().Less(rec.key()) {
			source, rec = p, head
		}
	}
	if n.ownIdx < len(n.ownQ) {
		head := n.ownQ[n.ownIdx]
		if source == -2 || head.key().Less(rec.key()) {
			source, rec = -1, head
		}
	}
	if source == -2 {
		return 0, edgeRec{}, false
	}
	return source, rec, true
}

func (n *node) pop(source int) {
	if source == -1 {
		n.ownIdx++
		return
	}
	n.childQ[source] = n.childQ[source][1:]
}

func (n *node) allStreamsEnded() bool {
	if n.ownIdx < len(n.ownQ) {
		return false
	}
	for p, done := range n.childDone {
		if !done || len(n.childQ[p]) > 0 {
			return false
		}
	}
	return true
}

// startDowncast runs at the leader once the upcast ends: solve the rooted
// tree from the collected records and enqueue one assignment per node.
func (n *node) startDowncast(view *sim.NodeView) {
	type half struct {
		other int64
		port  int // port at the *other* endpoint
	}
	adj := make(map[int64][]half)
	for _, r := range n.collected {
		adj[r.AID] = append(adj[r.AID], half{other: r.BID, port: r.BPort})
		adj[r.BID] = append(adj[r.BID], half{other: r.AID, port: r.APort})
	}
	// BFS from the leader's ID; deterministic order.
	for id := range adj {
		list := adj[id]
		slices.SortFunc(list, func(a, b half) int {
			switch {
			case a.other < b.other:
				return -1
			case a.other > b.other:
				return 1
			default:
				return 0
			}
		})
	}
	visited := map[int64]bool{view.ID: true}
	queue := []int64{view.ID}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, h := range adj[cur] {
			if visited[h.other] {
				continue
			}
			visited[h.other] = true
			n.downQ = append(n.downQ, downAsgMsg{Node: h.other, Port: h.port})
			queue = append(queue, h.other)
		}
	}
	if len(visited) != view.N {
		panic(fmt.Sprintf("pipeline: leader collected a tree on %d of %d nodes", len(visited), view.N))
	}
	n.downQ = append(n.downQ, downEndMsg{})
	n.haveOutput = true // leader's output is root (-1)
}

// pumpDowncast relays one buffered downcast item per round to every
// child, appending the sends to sends.
func (n *node) pumpDowncast(sends []sim.Send) []sim.Send {
	if len(n.downQ) == 0 {
		return sends
	}
	item := n.downQ[0]
	n.downQ = n.downQ[1:]
	if _, isEnd := item.(downEndMsg); isEnd {
		n.downEnded = true
	}
	for p := range n.children {
		sends = append(sends, sim.Send{Port: p, Msg: item.(sim.Message)})
	}
	return sends
}

func (n *node) Output() (int, bool) { return n.parentPort, n.done }

// idDSU is a union-find over sparse int64 identifiers.
type idDSU struct {
	parent map[int64]int64
}

func newIDDSU() *idDSU { return &idDSU{parent: make(map[int64]int64)} }

func (d *idDSU) find(x int64) int64 {
	p, ok := d.parent[x]
	if !ok || p == x {
		d.parent[x] = x
		return x
	}
	root := d.find(p)
	d.parent[x] = root
	return root
}

func (d *idDSU) union(a, b int64) bool {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return false
	}
	d.parent[ra] = rb
	return true
}
