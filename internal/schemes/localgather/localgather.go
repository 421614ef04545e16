// Package localgather implements the no-advice LOCAL-model baseline the
// paper cites for context: "there is a (0, D+1)-advising scheme for all
// graphs of diameter D, and having distinct node IDs". Every node floods
// complete edge records until its view stops growing — at which point the
// view provably equals the whole weighted graph — then solves MST locally
// under the intrinsic global order and roots it at the minimum ID.
//
// The scheme uses zero advice and terminates in eccentricity+O(1) ≈ D+1
// rounds, but its messages carry entire subgraphs: it is the textbook
// example of trading bandwidth for time, and experiment E8 contrasts its
// message sizes against the CONGEST-friendly advice schemes.
//
// See DESIGN.md §2.2 for the scheme framework and DESIGN.md §3 (E8)
// for the CONGEST contrast.
package localgather

import (
	"fmt"
	"slices"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/sim"
)

// Scheme is the (0, D+1) full-gathering baseline. The zero value is ready
// to use.
type Scheme struct{}

// Name implements advice.Scheme.
func (Scheme) Name() string { return "localgather" }

// Advise implements advice.Scheme: no advice at all.
func (Scheme) Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error) {
	return nil, nil
}

// NewNode implements advice.Scheme.
func (Scheme) NewNode(view *sim.NodeView) sim.Node {
	return &node{
		records:    make(map[recordKey]record),
		nbrID:      make([]int64, view.Deg),
		nbrPort:    make([]int, view.Deg),
		parentPort: -1,
	}
}

// record is one undirected edge, canonicalised so AID < BID.
type record struct {
	AID, BID     int64
	APort, BPort int
	W            graph.Weight
}

type recordKey struct{ AID, BID int64 }

func (r record) key() recordKey { return recordKey{r.AID, r.BID} }

// globalKey is the intrinsic order key of the edge, computable from the
// record alone.
func (r record) globalKey() graph.GlobalKey {
	return graph.GlobalKey{W: r.W, MinID: r.AID, PortAtMin: r.APort}
}

// helloMsg introduces a node to its neighbour: its ID and the far-side
// port of the connecting edge.
type helloMsg struct {
	ID   int64
	Port int
}

func (helloMsg) SizeBits(cm sim.CostModel) int { return cm.IDBits + cm.PortBits }

// recordsMsg carries newly learned edge records.
type recordsMsg struct {
	Recs []record
}

func (m recordsMsg) SizeBits(cm sim.CostModel) int {
	return len(m.Recs) * (2*cm.IDBits + 2*cm.PortBits + cm.WeightBits)
}

type node struct {
	records    map[recordKey]record
	nbrID      []int64
	nbrPort    []int
	parentPort int
	done       bool
}

func (n *node) Start(ctx *sim.Ctx, view *sim.NodeView) []sim.Send {
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
	var fresh []record
	for _, rcv := range inbox {
		switch m := rcv.Msg.(type) {
		case helloMsg:
			n.nbrID[rcv.Port] = m.ID
			n.nbrPort[rcv.Port] = m.Port
			r := makeRecord(view.ID, rcv.Port, m.ID, m.Port, view.PortW[rcv.Port])
			if n.learn(r) {
				fresh = append(fresh, r)
			}
		case recordsMsg:
			for _, r := range m.Recs {
				if n.learn(r) {
					fresh = append(fresh, r)
				}
			}
		default:
			panic(fmt.Sprintf("localgather: unexpected message %T", rcv.Msg))
		}
	}
	if len(fresh) == 0 {
		// View fixpoint: for a connected graph the view now holds every
		// edge (see the package test TestTerminationRule). Solve locally.
		n.solve(view)
		n.done = true
		return nil
	}
	slices.SortFunc(fresh, func(a, b record) int {
		ka, kb := a.key(), b.key()
		if ka.AID != kb.AID {
			if ka.AID < kb.AID {
				return -1
			}
			return 1
		}
		switch {
		case ka.BID < kb.BID:
			return -1
		case ka.BID > kb.BID:
			return 1
		default:
			return 0
		}
	})
	sends := ctx.Out[:0]
	for p := 0; p < view.Deg; p++ {
		sends = append(sends, sim.Send{Port: p, Msg: recordsMsg{Recs: fresh}})
	}
	return sends
}

func (n *node) learn(r record) bool {
	if _, ok := n.records[r.key()]; ok {
		return false
	}
	n.records[r.key()] = r
	return true
}

func makeRecord(aID int64, aPort int, bID int64, bPort int, w graph.Weight) record {
	if aID < bID {
		return record{AID: aID, APort: aPort, BID: bID, BPort: bPort, W: w}
	}
	return record{AID: bID, APort: bPort, BID: aID, BPort: aPort, W: w}
}

// solve runs Kruskal over the gathered records under the global order,
// roots the tree at the minimum ID, and finds this node's parent port.
func (n *node) solve(view *sim.NodeView) {
	if len(n.records) == 0 {
		// Single-node network.
		n.parentPort = -1
		return
	}
	recs := make([]record, 0, len(n.records))
	for _, r := range n.records {
		recs = append(recs, r)
	}
	slices.SortFunc(recs, func(a, b record) int {
		ka, kb := a.globalKey(), b.globalKey()
		switch {
		case ka.Less(kb):
			return -1
		case kb.Less(ka):
			return 1
		default:
			return 0
		}
	})
	// Dense index per ID.
	idx := make(map[int64]int)
	use := func(id int64) int {
		if i, ok := idx[id]; ok {
			return i
		}
		idx[id] = len(idx)
		return len(idx) - 1
	}
	for _, r := range recs {
		use(r.AID)
		use(r.BID)
	}
	parent := make([]int, len(idx))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	type adjEntry struct {
		rec   record
		other int64
	}
	adj := make(map[int64][]adjEntry)
	taken := 0
	for _, r := range recs {
		ra, rb := find(idx[r.AID]), find(idx[r.BID])
		if ra == rb {
			continue
		}
		parent[ra] = rb
		taken++
		adj[r.AID] = append(adj[r.AID], adjEntry{r, r.BID})
		adj[r.BID] = append(adj[r.BID], adjEntry{r, r.AID})
	}
	if taken != len(idx)-1 {
		panic("localgather: gathered view is disconnected")
	}
	// Root at the minimum ID; BFS to find this node's parent edge.
	rootID := recs[0].AID
	for id := range idx {
		if id < rootID {
			rootID = id
		}
	}
	if view.ID == rootID {
		n.parentPort = -1
		return
	}
	type item struct {
		id  int64
		via record // edge towards the parent (meaningless for the root)
	}
	visited := map[int64]bool{rootID: true}
	queue := []item{{id: rootID}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur.id] {
			if visited[e.other] {
				continue
			}
			visited[e.other] = true
			next := item{id: e.other, via: e.rec}
			if e.other == view.ID {
				// The record's port on our side is the parent port.
				if e.rec.AID == view.ID {
					n.parentPort = e.rec.APort
				} else {
					n.parentPort = e.rec.BPort
				}
				return
			}
			queue = append(queue, next)
		}
	}
	panic("localgather: node missing from its own gathered view")
}

func (n *node) Output() (int, bool) { return n.parentPort, n.done }
