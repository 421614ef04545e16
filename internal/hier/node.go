package hier

import (
	"mstadvice/internal/bitstring"
	"mstadvice/internal/convergecast"
	"mstadvice/internal/graph"
	"mstadvice/internal/localorder"
	"mstadvice/internal/sim"
)

// node is the local-decompression decoder. Non-roots learn their MST
// parent port directly from the advice hint; each fragment root
// reassembles its fragment's ⌈log n⌉-bit value from the carrier bits
// spread over the fragment's BFS prefix, collected by the relay-only
// convergecast (internal/convergecast) with limit ⌈log n⌉, then
// translates the decoded global rank back to a port (all-ones marks the
// global root). A node keeps O(deg + ⌈log n⌉) state and no fragment
// root builds a tree. The schedule is fixed — every node terminates at
// round ⌈log n⌉ + 1 — so the decoder is deterministic for any worker
// count and, wrapped in the α-synchronizer, runs unmodified in
// asynchronous mode.
type node struct {
	width      int // ⌈log n⌉: value width, prefix cut, schedule length
	parentPort int
	carrierOff int // where the carrier bits start in the advice

	nbrID   []int64
	nbrPort []int

	cc   convergecast.Stream
	done bool
}

func newNode(view *sim.NodeView) sim.Node {
	return &node{parentPort: -1}
}

func (n *node) Start(ctx *sim.Ctx, view *sim.NodeView) []sim.Send {
	if view.N < 2 {
		n.done = true
		return nil
	}
	n.width = graph.CeilLog2(view.N)
	r := bitstring.NewReader(view.Advice)
	if !r.ReadBit() {
		n.parentPort = int(r.ReadUint(bitstring.WidthFor(uint64(view.Deg - 1))))
	}
	n.carrierOff = r.Pos()
	n.nbrID = make([]int64, view.Deg)
	n.nbrPort = make([]int, view.Deg)
	hellos := make([]helloMsg, view.Deg)
	sends := ctx.Out[:0]
	for p := range hellos {
		hellos[p] = helloMsg{ID: view.ID, Port: p, Child: p == n.parentPort}
		sends = append(sends, sim.Send{Port: p, Msg: &hellos[p]})
	}
	return sends
}

func (n *node) Round(ctx *sim.Ctx, view *sim.NodeView, inbox []sim.Received) []sim.Send {
	if n.done {
		return nil
	}
	sends := ctx.Out[:0]
	if ctx.Round == 1 {
		children := int32(0)
		for _, rcv := range inbox {
			h := rcv.Msg.(*helloMsg)
			n.nbrID[rcv.Port] = h.ID
			n.nbrPort[rcv.Port] = h.Port
			if h.Child {
				children++
			}
		}
		own := convergecast.Rec{ID: view.ID, Bits: view.Advice, Off: int32(n.carrierOff), ChildCount: children}
		if p := n.parentPort; p >= 0 && p < view.Deg { // the engine rejects a corrupt hint's port
			own.ParentID = n.nbrID[p]
		}
		return n.cc.Open(own, n.parentPort, recordsCharge, sends)
	}
	for _, rcv := range inbox {
		n.cc.Arrive(rcv.Port, rcv.Msg.(*convergecast.Batch))
	}
	if ctx.Round <= n.width {
		return n.cc.Step(n.parentPort, ctx.Round, n.width, recordsCharge, view, sends)
	}
	if n.parentPort == -1 {
		n.cc.Step(-1, ctx.Round, n.width, recordsCharge, view, nil) // a root keeps the last level
		n.resolve(view)
	}
	n.done = true
	return nil
}

// resolve reassembles the fragment value at the root from its
// collection, the first min(⌈log n⌉, |F|) records of the fragment's BFS
// order, and converts it to the root's own MST parent port. The stride
// is the fragment's size when the collection is the whole fragment and
// shorter than ⌈log n⌉, and ⌈log n⌉ otherwise, as in assignFragment.
func (n *node) resolve(view *sim.NodeView) {
	held := n.cc.Held()
	stride := n.width
	if len(held) < stride && convergecast.Whole(held) {
		stride = len(held)
	}
	var value uint64
	for k := range held { // at most stride records
		t := &held[k]
		for i, pos := int(t.Off), k; pos < n.width; i, pos = i+1, pos+stride {
			if t.Bits.Bit(i) {
				value |= uint64(1) << uint(pos)
			}
		}
	}
	if value == (uint64(1)<<uint(n.width))-1 {
		n.parentPort = -1 // global root
		return
	}
	if p, ok := localorder.GlobalRankToPort(view.PortW, view.ID, n.far, int(value)); ok {
		n.parentPort = p
	}
}

// far returns the far side of port p the hello exchange reported.
func (n *node) far(p int) (int64, int) { return n.nbrID[p], n.nbrPort[p] }

func (n *node) Output() (int, bool) { return n.parentPort, n.done }
