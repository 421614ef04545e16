package core

import (
	"fmt"
	"slices"

	"mstadvice/internal/graph"
	"mstadvice/internal/localorder"
	"mstadvice/internal/sim"
)

// node is the Theorem 3 decoder at one network node. It follows the fixed
// round schedule (see Schedule): one ID-exchange round, P packed-phase
// windows, and the final truncated collect. Throughout, parentPort == -1
// means "currently the root of my fragment tree"; at the end of the
// schedule it means "root of the MST".
type node struct {
	sched Schedule

	// Learned in the setup round.
	nbrID   []int64
	nbrPort []int

	// Fragment tree state.
	parentPort int

	// Advice cursor: number of packed bits consumed (the packed region is
	// advice[1:]; bit 0 is the final-stage bit).
	cons int

	// Per-window, per-port state, generation-stamped so windowStart resets
	// it in O(1) instead of reallocating maps (see portState).
	wnum  uint32
	nkids int32
	ports []portState

	// Per-window state. subStore is the one subtree reused by every
	// window; sub points at it while a window's collect is live.
	sub      *subtree
	subStore subtree
	sent     int
	myLevel  int
	haveLvl  bool
	chooser  bool
	chUp     bool

	// sendBuf backs the outbox returned from Start and Round. The engine
	// consumes the outbox before the next compute phase, and a node sends
	// at most one message per port per round, so one buffer of capacity
	// deg serves the whole run. recMsgs/finalMsgs are the two alternating
	// record batches of the convergecasts (see messages.go for how long
	// a sent batch stays valid).
	sendBuf   []sim.Send
	recMsgs   [2]recMsg
	recFlip   int
	finalMsgs [2]finalRecMsg
	finalFlip int

	done bool
}

func newNode(view *sim.NodeView, cap int) *node {
	return &node{
		sched:      NewSchedule(view.N, cap),
		nbrID:      make([]int64, view.Deg),
		nbrPort:    make([]int, view.Deg),
		parentPort: -1,
		wnum:       1, // stamps start at zero, so no port is a child yet
		ports:      make([]portState, view.Deg),
		sendBuf:    make([]sim.Send, 0, view.Deg),
	}
}

// portState is one port's per-window state: the port is a child iff
// child == wnum, and level is the fragment level reported on it iff
// levelWin == wnum.
type portState struct {
	child, levelWin uint32
	level           int32
}

// isChild reports whether port p announced as a child this window.
func (n *node) isChild(p int) bool { return n.ports[p].child == n.wnum }

// levelAt returns the fragment level reported on port p this window.
func (n *node) levelAt(p int) (int, bool) {
	if ps := &n.ports[p]; ps.levelWin == n.wnum {
		return int(ps.level), true
	}
	return 0, false
}

func (n *node) Start(ctx *sim.Ctx, view *sim.NodeView) []sim.Send {
	if view.N <= 1 {
		n.done = true
		return nil
	}
	ids := make([]idMsg, view.Deg)
	sends := n.sendBuf[:0]
	for p := range ids {
		ids[p] = idMsg{ID: view.ID, Port: p}
		sends = append(sends, sim.Send{Port: p, Msg: &ids[p]})
	}
	return sends
}

func (n *node) Round(ctx *sim.Ctx, view *sim.NodeView, inbox []sim.Received) []sim.Send {
	if n.done {
		return nil
	}
	sends := n.sendBuf[:0]
	for _, rcv := range inbox {
		sends = n.receive(view, rcv, sends)
	}
	sends = n.slotActions(ctx.Round, view, sends)
	n.sendBuf = sends
	if ctx.Round >= n.sched.Total() {
		n.done = true
	}
	return sends
}

func (n *node) Output() (int, bool) { return n.parentPort, n.done }

// --- inbox handling ---

// receive processes one delivered message, appending any resulting sends.
func (n *node) receive(view *sim.NodeView, rcv sim.Received, sends []sim.Send) []sim.Send {
	switch m := rcv.Msg.(type) {
	case *idMsg:
		n.nbrID[rcv.Port] = m.ID
		n.nbrPort[rcv.Port] = m.Port
		return sends

	case announceMsg:
		if ps := &n.ports[rcv.Port]; ps.child != n.wnum {
			ps.child = n.wnum
			n.nkids++
		}
		return sends

	case *recMsg:
		if n.sub == nil {
			panic("core: record before window start")
		}
		for _, r := range m.Recs {
			n.sub.add(annotate(treeNode{
				id: r.ID, w: r.W, portAtParent: r.PortAtParent,
				childCount: r.ChildCount, hop: uint16(r.Hop), bits: r.Bits, off: r.Off,
			}, r.ParentID, view, rcv.Port))
		}
		return sends

	case *bcastMsg:
		n.setLevel(rcv.Port, m.Level)
		return n.applyBroadcast(view, m, sends)

	case levelMsg:
		n.setLevel(rcv.Port, m.Level)
		return sends

	case adoptMsg:
		if n.parentPort != -1 && n.parentPort != rcv.Port {
			panic(fmt.Sprintf("core: adopt on port %d but parent already %d", rcv.Port, n.parentPort))
		}
		n.parentPort = rcv.Port
		return sends

	case *finalRecMsg:
		if n.sub == nil {
			panic("core: final record before window start")
		}
		for _, r := range m.Recs {
			n.sub.add(annotate(treeNode{
				id: r.ID, w: r.W, portAtParent: r.PortAtParent,
				childCount: -1, hop: uint16(r.Hop), bit: r.Bit,
			}, r.ParentID, view, rcv.Port))
		}
		return sends

	default:
		panic(fmt.Sprintf("core: unexpected message %T", rcv.Msg))
	}
}

// setLevel records the fragment level reported on port p this window.
func (n *node) setLevel(p, lvl int) {
	ps := &n.ports[p]
	ps.levelWin, ps.level = n.wnum, int32(lvl)
}

// annotatePending marks a record whose parent-side fields are filled by
// the first relaying node. Identifiers are arbitrary int64s, so a separate
// in-band value cannot be reserved; instead the sender of its own record
// uses this constant and the direct parent always overwrites it (records
// at hop 0 are exactly the unannotated ones).
const annotatePending int64 = -1 << 62

// annotate returns a record received on port p and its parent's
// identifier. A direct child's own record arrives unannotated: this node
// is its parent and alone knows the connecting edge's weight and port.
func annotate(t treeNode, parentID int64, view *sim.NodeView, p int) (treeNode, int64) {
	if parentID == annotatePending {
		parentID = view.ID
		t.w = view.PortW[p]
		t.portAtParent = int32(p)
	}
	return t, parentID
}

// applyBroadcast processes A(F): records the fragment level, the chooser
// identity, and this node's consumption update, then relays down the tree
// and reports its level on every non-child edge.
func (n *node) applyBroadcast(view *sim.NodeView, m *bcastMsg, sends []sim.Send) []sim.Send {
	n.myLevel = m.Level
	n.haveLvl = true
	if m.ChooserID == view.ID {
		n.chooser = true
		n.chUp = m.Up
	}
	for _, e := range m.Cons {
		if e.ID == view.ID {
			n.cons += e.Count
			if 1+n.cons > view.Advice.Len() {
				panic("core: consumption past advice end")
			}
		}
	}
	for p := 0; p < view.Deg; p++ {
		if n.isChild(p) {
			sends = append(sends, sim.Send{Port: p, Msg: m})
		} else if p != n.parentPort {
			sends = append(sends, sim.Send{Port: p, Msg: levelMsg{Level: m.Level}})
		}
	}
	return sends
}

// --- per-slot actions ---

func (n *node) slotActions(round int, view *sim.NodeView, sends []sim.Send) []sim.Send {
	kind, phase, slot := n.sched.Locate(round)
	switch kind {
	case KindPhase:
		return n.phaseSlot(phase, slot, view, sends)
	case KindFinal:
		return n.finalSlot(slot, view, sends)
	default:
		return sends
	}
}

func (n *node) phaseSlot(i, slot int, view *sim.NodeView, sends []sim.Send) []sim.Send {
	quota := 1 << uint(i)
	switch {
	case slot == 0:
		return n.windowStart(view, sends)

	case slot == 1:
		// Children are known (announces processed this round); create our
		// own record and begin streaming.
		n.beginPhaseStream(view)
		return n.streamRecs(quota, view, sends)

	case slot < ConvergeEnd(i):
		return n.streamRecs(quota, view, sends)

	case slot == ConvergeEnd(i):
		if !n.qualifiesActive(i, view) {
			return sends // non-root, passive fragment, or the spanning one
		}
		return n.decodeAndBroadcast(i, view, sends)

	case slot == ChooseSlot(i):
		if !n.chooser {
			return sends
		}
		return n.choose(view, sends)
	}
	return sends
}

// beginPhaseStream creates this node's own convergecast record once its
// children are known (one round after the window's announce).
func (n *node) beginPhaseStream(view *sim.NodeView) {
	n.subStore.reset(treeNode{
		id:         view.ID,
		childCount: n.nkids,
		bits:       view.Advice,
		off:        int32(min(1+n.cons, view.Advice.Len())),
	})
	n.sub = &n.subStore
	n.sent = 0
}

// beginFinalStream is beginPhaseStream for the final collect: the record
// carries the node's single final-stage advice bit.
func (n *node) beginFinalStream(view *sim.NodeView) {
	n.subStore.reset(treeNode{id: view.ID, childCount: -1, bit: view.Advice.Bit(0)})
	n.sub = &n.subStore
	n.sent = 0
}

// qualifiesActive reports whether this fragment root collected a complete
// tree of an active, non-spanning fragment at phase i and should decode.
func (n *node) qualifiesActive(i int, view *sim.NodeView) bool {
	if n.parentPort != -1 || n.sub == nil {
		return false
	}
	quota := 1 << uint(i)
	return n.sub.complete() && n.sub.size() < quota && n.sub.size() < view.N
}

// windowStart resets per-window state and announces to the parent.
// Bumping the window stamp invalidates all per-port child and level
// entries at once.
func (n *node) windowStart(view *sim.NodeView, sends []sim.Send) []sim.Send {
	n.wnum++
	n.nkids = 0
	n.haveLvl = false
	n.chooser = false
	n.sub = nil
	n.sent = 0
	if n.parentPort != -1 {
		sends = append(sends, sim.Send{Port: n.parentPort, Msg: announceMsg{}})
	}
	return sends
}

// streamRecs forwards the unsent part of the subtree's BFS prefix to the
// fragment parent (roots integrate but do not forward). The batch is one
// of two alternating buffers: the batch sent in round r is copied out by
// the receiver in round r+1, while this node is already filling the
// other buffer, and is free again by round r+2.
func (n *node) streamRecs(quota int, view *sim.NodeView, sends []sim.Send) []sim.Send {
	if n.parentPort == -1 || n.sub == nil {
		return sends
	}
	order := n.sub.bfs(quota)
	if n.sent >= len(order) {
		return sends
	}
	m := &n.recMsgs[n.recFlip]
	m.Recs = slices.Grow(m.Recs[:0], len(order)-n.sent)
	for _, i := range order[n.sent:] {
		t := &n.sub.pool[i]
		if int(t.hop)+1 > quota {
			continue
		}
		m.Recs = append(m.Recs, rec{
			ID: t.id, ParentID: n.sub.parentID(i), W: t.w, Bits: t.bits, Off: t.off,
			PortAtParent: t.portAtParent, ChildCount: t.childCount, Hop: int32(t.hop) + 1,
		})
	}
	n.sent = len(order)
	if len(m.Recs) == 0 {
		return sends
	}
	n.recFlip ^= 1
	return append(sends, sim.Send{Port: n.parentPort, Msg: m})
}

// decodeAndBroadcast runs at the root of an active fragment: reassemble
// A(F) from the streamed bits in BFS order, compute the per-node
// consumption update, apply it locally and broadcast.
func (n *node) decodeAndBroadcast(i int, view *sim.NodeView, sends []sim.Send) []sim.Send {
	need := i + 2
	order := n.sub.bfs(0)
	// A(F) = b_up‖b_level‖bin(j), read least significant bit first.
	var a uint64
	got := 0
	m := &bcastMsg{}
	for _, k := range order {
		t := &n.sub.pool[k]
		take := min(t.bits.Len()-int(t.off), need-got)
		if take <= 0 {
			continue
		}
		a |= t.bits.Uint(int(t.off), take) << uint(got)
		got += take
		m.Cons = append(m.Cons, consEntry{ID: t.id, Count: take})
		if got == need {
			break
		}
	}
	if got < need {
		panic(fmt.Sprintf("core: fragment stream has %d bits, need %d (oracle/decoder mismatch)", got, need))
	}
	m.Up, m.Level = a&1 == 1, int(a>>1&1)
	j := a >> 2
	if j >= uint64(len(order)) {
		panic(fmt.Sprintf("core: chooser index %d out of range (fragment size %d)", j, len(order)))
	}
	m.ChooserID = n.sub.pool[order[j]].id
	return n.applyBroadcast(view, m, sends)
}

// choose runs at the choosing node: select the minimum-key incident edge
// whose far endpoint is not known to be in this fragment (children,
// parent, or a neighbour that reported our own level this phase), then
// either recognise it as our parent edge (up) or adopt the far endpoint
// (down).
func (n *node) choose(view *sim.NodeView, sends []sim.Send) []sim.Send {
	if !n.haveLvl {
		panic("core: chooser without a level")
	}
	best := -1
	var bestKey graph.GlobalKey
	for p := 0; p < view.Deg; p++ {
		if p == n.parentPort || n.isChild(p) {
			continue
		}
		if lvl, ok := n.levelAt(p); ok && lvl == n.myLevel {
			continue
		}
		key := localorder.KeyAt(view.PortW[p], view.ID, p, n.nbrID[p], n.nbrPort[p])
		if best == -1 || key.Less(bestKey) {
			best, bestKey = p, key
		}
	}
	if best == -1 {
		panic("core: chooser found no candidate edge")
	}
	if n.chUp {
		if n.parentPort != -1 {
			panic("core: up-selection at a non-root chooser")
		}
		n.parentPort = best
		return sends
	}
	return append(sends, sim.Send{Port: best, Msg: adoptMsg{}})
}

// --- final window ---

func (n *node) finalSlot(slot int, view *sim.NodeView, sends []sim.Send) []sim.Send {
	width := n.sched.Width
	switch {
	case slot == 0:
		return n.windowStart(view, sends)

	case slot == 1:
		n.beginFinalStream(view)
		return n.streamFinal(width, view, sends)

	case slot <= width:
		return n.streamFinal(width, view, sends)

	case slot == n.sched.FinalDecodeSlot():
		if n.parentPort == -1 {
			n.decodeFinal(view)
		}
	}
	return sends
}

// decodeFinal runs at a final-fragment root: reassemble the Width-bit
// string from the BFS prefix and resolve it to a parent port (or the
// all-ones root marker).
func (n *node) decodeFinal(view *sim.NodeView) {
	width := n.sched.Width
	order := n.sub.bfs(width)
	if len(order) < width {
		panic(fmt.Sprintf("core: final fragment exposes %d of %d bits", len(order), width))
	}
	value := uint64(0)
	for k, i := range order {
		if n.sub.pool[i].bit {
			value |= 1 << uint(k)
		}
	}
	if value == 1<<uint(width)-1 {
		return // all-ones marker: this node is the MST root
	}
	port, ok := localorder.GlobalRankToPort(view.PortW, view.ID, n.nbrID, n.nbrPort, int(value))
	if !ok {
		panic(fmt.Sprintf("core: final rank %d out of range for degree %d", value, view.Deg))
	}
	n.parentPort = port
}

// streamFinal is streamRecs for the final collect, with the same
// two-buffer reuse discipline.
func (n *node) streamFinal(width int, view *sim.NodeView, sends []sim.Send) []sim.Send {
	if n.parentPort == -1 || n.sub == nil {
		return sends
	}
	order := n.sub.bfs(width)
	if n.sent >= len(order) {
		return sends
	}
	m := &n.finalMsgs[n.finalFlip]
	m.Recs = slices.Grow(m.Recs[:0], len(order)-n.sent)
	for _, i := range order[n.sent:] {
		t := &n.sub.pool[i]
		if int(t.hop)+1 > width {
			continue
		}
		m.Recs = append(m.Recs, finalRec{
			ID: t.id, ParentID: n.sub.parentID(i), W: t.w,
			PortAtParent: t.portAtParent, Hop: int32(t.hop) + 1, Bit: t.bit,
		})
	}
	n.sent = len(order)
	if len(m.Recs) == 0 {
		return sends
	}
	n.finalFlip ^= 1
	return append(sends, sim.Send{Port: n.parentPort, Msg: m})
}
