// Package noadvice implements the zero-advice distributed Borůvka
// baseline in the style of Gallager–Humblet–Spira: fragments repeatedly
// find their minimum outgoing edge by convergecast over their fragment
// trees, merge across the chosen edges, and re-root behind a new leader.
// It is the comparison point for the paper's headline claim — without
// advice, distributed MST needs polynomially many rounds (Θ̃(√n) lower
// bound in CONGEST; Θ(n)-ish for tree-shaped fragments here), whereas
// twelve bits of advice bring it down to O(log n).
//
// Phases are driven by the simulator's idealized quiescence pulses (see
// DESIGN.md §2.2: a real network would pay extra rounds for a
// synchronizer, so the measured round counts are a lower bound for this
// baseline — which only strengthens the separation shown in E5). Each
// phase has four pulse-separated stages:
//
//	S1  fragment-ID exchange, then convergecast of the minimum outgoing
//	    edge candidate (under the global intrinsic order) to the leader;
//	S2  leader broadcasts the chosen edge — or DONE when the fragment has
//	    no outgoing edge, i.e. spans the graph;
//	S3  the chooser sends a merge request across the chosen edge;
//	    reciprocal requests on the same edge identify the unique "core",
//	    whose larger-ID endpoint becomes the merged fragment's leader;
//	    every fragment re-roots behind its chooser with a flip wave;
//	S4  the new leader floods the merged fragment with its ID.
//
// The final spanning tree is exactly the unique MST under the global
// order, rooted at the last surviving leader.
package noadvice

import (
	"fmt"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/localorder"
	"mstadvice/internal/sim"
)

// Scheme is the zero-advice distributed Borůvka baseline. The zero value
// is ready to use.
type Scheme struct{}

// Name implements advice.Scheme.
func (Scheme) Name() string { return "noadvice" }

// NeedsPulses reports that the decoder is self-timed and requires the
// simulator's quiescence synchronizer (advice.Run enables it).
func (Scheme) NeedsPulses() bool { return true }

// Advise implements advice.Scheme: no advice.
func (Scheme) Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error) {
	return nil, nil
}

// NewNode implements advice.Scheme.
func (Scheme) NewNode(view *sim.NodeView) sim.Node {
	return &node{
		parentPort: -1,
		children:   make(map[int]bool),
		nbrFrag:    make([]int64, view.Deg),
		nbrKnown:   make([]bool, view.Deg),
		nbrID:      make([]int64, view.Deg),
		nbrPort:    make([]int, view.Deg),
		candIn:     make(map[int]candidate),
	}
}

// candidate is a fragment's minimum-outgoing-edge candidate: the edge's
// global key plus the identity of the fragment node incident to it.
type candidate struct {
	Has       bool
	Key       graph.GlobalKey
	ChooserID int64
}

func (c candidate) better(d candidate) bool {
	if !d.Has {
		return c.Has
	}
	if !c.Has {
		return false
	}
	return c.Key.Less(d.Key)
}

// --- messages ---

// fragMsg announces the sender's fragment, identifier and far-side port.
type fragMsg struct {
	Frag int64
	ID   int64
	Port int
}

func (fragMsg) SizeBits(cm sim.CostModel) int { return 2*cm.IDBits + cm.PortBits }

// candMsg carries a convergecast candidate up the fragment tree.
type candMsg struct{ Cand candidate }

func (candMsg) SizeBits(cm sim.CostModel) int {
	return 1 + cm.WeightBits + 2*cm.IDBits + cm.PortBits
}

// choiceMsg broadcasts the fragment's chosen edge, or Done.
type choiceMsg struct {
	Done bool
	Cand candidate
}

func (choiceMsg) SizeBits(cm sim.CostModel) int {
	return 2 + cm.WeightBits + 2*cm.IDBits + cm.PortBits
}

// reqMsg is a merge request across the chosen edge.
type reqMsg struct{ SenderID int64 }

func (reqMsg) SizeBits(cm sim.CostModel) int { return cm.IDBits }

// flipMsg re-roots the fragment tree: the receiver becomes the sender's
// child... viewed from the new root, the receiver's parent becomes the
// sender.
type flipMsg struct{}

func (flipMsg) SizeBits(sim.CostModel) int { return 1 }

// newFragMsg floods the merged fragment's new identifier.
type newFragMsg struct{ Frag int64 }

func (newFragMsg) SizeBits(cm sim.CostModel) int { return cm.IDBits }

// --- node state machine ---

const (
	stageExchange = iota // S1
	stageChoice          // S2
	stageMerge           // S3
	stageNewFrag         // S4
	numStages
)

type node struct {
	fragID     int64
	parentPort int // -1: fragment leader
	children   map[int]bool
	done       bool

	nbrFrag  []int64
	nbrKnown []bool
	nbrID    []int64
	nbrPort  []int

	lastPulse int

	// S1 state
	candIn   map[int]candidate
	candSent bool
	bestCand candidate // leader only
	haveBest bool
	// S2/S3 state
	isChooser  bool
	chosenPort int
	reqSentRnd int
	reqDecided bool
}

func (n *node) Start(ctx *sim.Ctx, view *sim.NodeView) []sim.Send {
	n.fragID = view.ID
	return nil
}

func (n *node) stage() int { return (n.lastPulse - 1) % numStages }

func (n *node) Round(ctx *sim.Ctx, view *sim.NodeView, inbox []sim.Received) []sim.Send {
	if n.done {
		return nil
	}
	sends := ctx.Out[:0]
	if ctx.Pulse != n.lastPulse {
		if ctx.Pulse != n.lastPulse+1 {
			panic(fmt.Sprintf("noadvice: missed a pulse (%d -> %d)", n.lastPulse, ctx.Pulse))
		}
		n.lastPulse = ctx.Pulse
		sends = n.enterStage(ctx, view, sends)
	}
	for _, rcv := range inbox {
		sends = n.receive(view, rcv, sends)
	}
	// A chooser that saw no reciprocal request by the round after sending
	// is the child side of its chosen edge: adopt and re-root.
	if n.stage() == stageMerge && n.isChooser && !n.reqDecided && ctx.Round > n.reqSentRnd {
		n.reqDecided = true
		sends = n.reroot(n.chosenPort, sends)
	}
	// Convergecast readiness can also change on stage entry (degree-0 or
	// child-free nodes); checked last every round.
	if n.stage() == stageExchange && !n.candSent {
		sends = n.tryAggregate(view, sends)
	}
	return sends
}

// enterStage, receive and the helpers they call append their sends to
// sends and return it.
func (n *node) enterStage(ctx *sim.Ctx, view *sim.NodeView, sends []sim.Send) []sim.Send {
	switch n.stage() {
	case stageExchange:
		for p := range n.nbrKnown {
			n.nbrKnown[p] = false
		}
		n.candIn = make(map[int]candidate)
		n.candSent = false
		n.haveBest = false
		n.isChooser = false
		n.reqDecided = false
		for p := 0; p < view.Deg; p++ {
			sends = append(sends, sim.Send{Port: p, Msg: fragMsg{Frag: n.fragID, ID: view.ID, Port: p}})
		}
		return sends

	case stageChoice:
		if n.parentPort != -1 {
			return sends
		}
		if !n.haveBest {
			panic("noadvice: leader entered choice stage without an aggregate")
		}
		if !n.bestCand.Has {
			// No outgoing edge: the fragment spans the graph.
			n.done = true
			n.parentPort = -1
			return n.toChildren(choiceMsg{Done: true}, sends)
		}
		n.noteChoice(view, n.bestCand)
		return n.toChildren(choiceMsg{Cand: n.bestCand}, sends)

	case stageMerge:
		if n.isChooser {
			n.reqSentRnd = ctx.Round
			return append(sends, sim.Send{Port: n.chosenPort, Msg: reqMsg{SenderID: view.ID}})
		}
		return sends

	case stageNewFrag:
		if n.parentPort == -1 {
			n.fragID = view.ID
			return n.toChildren(newFragMsg{Frag: view.ID}, sends)
		}
		return sends
	}
	return sends
}

func (n *node) receive(view *sim.NodeView, rcv sim.Received, sends []sim.Send) []sim.Send {
	switch m := rcv.Msg.(type) {
	case fragMsg:
		n.nbrFrag[rcv.Port] = m.Frag
		n.nbrID[rcv.Port] = m.ID
		n.nbrPort[rcv.Port] = m.Port
		n.nbrKnown[rcv.Port] = true
		return sends

	case candMsg:
		if !n.children[rcv.Port] {
			panic("noadvice: candidate from a non-child")
		}
		n.candIn[rcv.Port] = m.Cand
		return sends

	case choiceMsg:
		if m.Done {
			n.done = true
			return n.toChildren(choiceMsg{Done: true}, sends)
		}
		n.noteChoice(view, m.Cand)
		return n.toChildren(m, sends)

	case reqMsg:
		if n.isChooser && rcv.Port == n.chosenPort {
			// Reciprocal: this edge is the merge core.
			n.reqDecided = true
			if view.ID > m.SenderID {
				// Winner: new leader of the merged fragment.
				n.children[rcv.Port] = true
				return n.reroot(-1, sends)
			}
			// Loser: child across the core edge.
			return n.reroot(rcv.Port, sends)
		}
		// Plain adoption: the sender hangs below us.
		n.children[rcv.Port] = true
		return sends

	case flipMsg:
		// The child at rcv.Port has become our parent.
		if !n.children[rcv.Port] {
			panic("noadvice: flip from a non-child")
		}
		delete(n.children, rcv.Port)
		old := n.parentPort
		n.parentPort = rcv.Port
		if old != -1 {
			n.children[old] = true
			return append(sends, sim.Send{Port: old, Msg: flipMsg{}})
		}
		return sends

	case newFragMsg:
		n.fragID = m.Frag
		return n.toChildren(m, sends)

	default:
		panic(fmt.Sprintf("noadvice: unexpected message %T", rcv.Msg))
	}
}

// noteChoice records the fragment's chosen edge and marks this node as
// chooser when the candidate names it.
func (n *node) noteChoice(view *sim.NodeView, c candidate) {
	if c.ChooserID != view.ID {
		return
	}
	n.isChooser = true
	n.chosenPort = -1
	for p := 0; p < view.Deg; p++ {
		if n.keyAt(view, p) == c.Key {
			n.chosenPort = p
			break
		}
	}
	if n.chosenPort == -1 {
		panic("noadvice: chooser cannot find its chosen edge")
	}
}

// reroot makes this node the local root of its old fragment tree (flip
// wave towards the old leader) and attaches it at newParent (-1 to become
// the merged fragment's leader).
func (n *node) reroot(newParent int, sends []sim.Send) []sim.Send {
	old := n.parentPort
	n.parentPort = newParent
	if old != -1 && old != newParent {
		n.children[old] = true
		sends = append(sends, sim.Send{Port: old, Msg: flipMsg{}})
	}
	return sends
}

// tryAggregate sends the convergecast candidate up once the neighbour
// fragments and all child candidates are known.
func (n *node) tryAggregate(view *sim.NodeView, sends []sim.Send) []sim.Send {
	for p := 0; p < view.Deg; p++ {
		if !n.nbrKnown[p] {
			return sends
		}
	}
	for p := range n.children {
		if _, ok := n.candIn[p]; !ok {
			return sends
		}
	}
	best := candidate{}
	for p := 0; p < view.Deg; p++ {
		if n.nbrFrag[p] == n.fragID {
			continue
		}
		c := candidate{Has: true, Key: n.keyAt(view, p), ChooserID: view.ID}
		if c.better(best) {
			best = c
		}
	}
	for _, c := range n.candIn {
		if c.better(best) {
			best = c
		}
	}
	n.candSent = true
	if n.parentPort == -1 {
		n.bestCand = best
		n.haveBest = true
		return sends
	}
	return append(sends, sim.Send{Port: n.parentPort, Msg: candMsg{Cand: best}})
}

func (n *node) keyAt(view *sim.NodeView, p int) graph.GlobalKey {
	return localorder.KeyAt(view.PortW[p], view.ID, p, n.nbrID[p], n.nbrPort[p])
}

func (n *node) toChildren(m sim.Message, sends []sim.Send) []sim.Send {
	for p := range n.children {
		sends = append(sends, sim.Send{Port: p, Msg: m})
	}
	return sends
}

func (n *node) Output() (int, bool) { return n.parentPort, n.done }
