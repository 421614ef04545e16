package core

import (
	"fmt"
	"sync/atomic"

	"mstadvice/internal/convergecast"
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
	sched *Schedule // shared by every node of the network, never written

	// Fragment tree state.
	parentPort int

	// Advice cursor: number of packed bits consumed (the packed region is
	// advice[1:]; bit 0 is the final-stage bit).
	cons int

	// Per-port state, one allocation: the far side learned in the setup
	// round, and the per-window entries, generation-stamped so
	// windowStart resets them in O(1) instead of reallocating maps (see
	// portState).
	wnum  uint32
	nkids int32
	ports []portState

	// Per-window state.
	myLevel int
	haveLvl bool
	chooser bool
	chUp    bool

	// cc runs the convergecasts: every window's and the final collect's.
	cc convergecast.Stream

	done bool
}

func newNode(view *sim.NodeView, cap int) *node {
	return &node{
		sched:      sharedSchedule(view.N, cap),
		parentPort: -1,
		wnum:       1, // stamps start at zero, so no port is a child yet
		ports:      make([]portState, view.Deg),
	}
}

// lastSchedule is the schedule the most recently built node holds. The
// nodes of one network are built one after another with the same n, so
// they share one immutable Schedule instead of holding a copy each.
var lastSchedule atomic.Pointer[Schedule]

// sharedSchedule returns the schedule for (n, cap), reusing the last one
// built when it matches.
func sharedSchedule(n, cap int) *Schedule {
	if s := lastSchedule.Load(); s != nil && s.N == n && s.Cap == cap {
		return s
	}
	s := NewSchedule(n, cap)
	lastSchedule.Store(&s)
	return &s
}

// portState is one port's state, 24 bytes: the far side the ID
// exchange reports (the neighbour's identifier and its port there), and
// the per-window entries: the port is a child iff child == wnum, and
// level is the fragment level reported on it iff levelWin == wnum.
type portState struct {
	farID           int64
	farPort         int32
	child, levelWin uint32
	level           int32
}

// far returns the far side of port p: the neighbour's identifier and
// its port there.
func (n *node) far(p int) (int64, int) {
	ps := &n.ports[p]
	return ps.farID, int(ps.farPort)
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
	sends := ctx.Out[:0]
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
	sends := ctx.Out[:0]
	for _, rcv := range inbox {
		sends = n.receive(view, rcv, sends)
	}
	sends = n.slotActions(ctx.Round, view, sends)
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
		ps := &n.ports[rcv.Port]
		ps.farID, ps.farPort = m.ID, int32(m.Port)
		return sends

	case announceMsg:
		if ps := &n.ports[rcv.Port]; ps.child != n.wnum {
			ps.child = n.wnum
			n.nkids++
		}
		return sends

	case *convergecast.Batch:
		n.cc.Arrive(rcv.Port, m)
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

	default:
		panic(fmt.Sprintf("core: unexpected message %T", rcv.Msg))
	}
}

// setLevel records the fragment level reported on port p this window.
func (n *node) setLevel(p, lvl int) {
	ps := &n.ports[p]
	ps.levelWin, ps.level = n.wnum, int32(lvl)
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
		// Children are known (announces processed this round); open the
		// convergecast with our own record.
		return n.open(view, false, sends)

	case slot < ConvergeEnd(i):
		return n.cc.Step(n.parentPort, slot, quota, phaseCharge, view, sends)

	case slot == ConvergeEnd(i):
		if n.parentPort != -1 {
			return sends
		}
		n.cc.Step(-1, slot, quota, phaseCharge, view, nil) // a root keeps the last level
		if !n.qualifiesActive(i, view) {
			return sends // passive fragment, or the spanning one
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

// open starts a convergecast once this node's children are known (one
// round after the window's announce) with its own record. A phase record
// carries the child count and the unconsumed packed advice; a final
// record carries the advice for its final-stage bit alone.
func (n *node) open(view *sim.NodeView, final bool, sends []sim.Send) []sim.Send {
	own := convergecast.Rec{ID: view.ID, Bits: view.Advice, ChildCount: -1}
	if n.parentPort != -1 {
		own.ParentID = n.ports[n.parentPort].farID
	}
	charge := phaseCharge
	if final {
		charge = finalCharge
	} else {
		own.ChildCount = n.nkids
		own.Off = int32(min(1+n.cons, view.Advice.Len()))
	}
	return n.cc.Open(own, n.parentPort, charge, sends)
}

// qualifiesActive reports whether this fragment root collected a complete
// tree of an active, non-spanning fragment at phase i and should decode.
func (n *node) qualifiesActive(i int, view *sim.NodeView) bool {
	held := n.cc.Held()
	if n.parentPort != -1 || len(held) == 0 {
		return false
	}
	return len(held) < 1<<uint(i) && len(held) < view.N && convergecast.Whole(held)
}

// windowStart resets per-window state and announces to the parent.
// Bumping the window stamp invalidates all per-port child and level
// entries at once.
func (n *node) windowStart(view *sim.NodeView, sends []sim.Send) []sim.Send {
	n.wnum++
	n.nkids = 0
	n.haveLvl = false
	n.chooser = false
	n.cc.Reset() // no collection until open
	if n.parentPort != -1 {
		sends = append(sends, sim.Send{Port: n.parentPort, Msg: announceMsg{}})
	}
	return sends
}

// decodeAndBroadcast runs at the root of an active fragment: reassemble
// A(F) from the held bits in BFS order, compute the per-node
// consumption update, apply it locally and broadcast.
func (n *node) decodeAndBroadcast(i int, view *sim.NodeView, sends []sim.Send) []sim.Send {
	need := i + 2
	// A(F) = b_up‖b_level‖bin(j), read least significant bit first.
	var a uint64
	got := 0
	m := &bcastMsg{}
	held := n.cc.Held()
	for k := range held {
		t := &held[k]
		take := min(t.Bits.Len()-int(t.Off), need-got)
		if take <= 0 {
			continue
		}
		a |= t.Bits.Uint(int(t.Off), take) << uint(got)
		got += take
		m.Cons = append(m.Cons, consEntry{ID: t.ID, Count: take})
		if got == need {
			break
		}
	}
	if got < need {
		panic(fmt.Sprintf("core: fragment stream has %d bits, need %d (oracle/decoder mismatch)", got, need))
	}
	m.Up, m.Level = a&1 == 1, int(a>>1&1)
	j := a >> 2
	if j >= uint64(len(held)) {
		panic(fmt.Sprintf("core: chooser index %d out of range (fragment size %d)", j, len(held)))
	}
	m.ChooserID = held[j].ID
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
		farID, farPort := n.far(p)
		key := localorder.KeyAt(view.PortW[p], view.ID, p, farID, farPort)
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
		return n.open(view, true, sends)

	case slot <= width:
		return n.cc.Step(n.parentPort, slot, width, finalCharge, view, sends)

	case slot == n.sched.FinalDecodeSlot():
		if n.parentPort == -1 {
			n.cc.Step(-1, slot, width, finalCharge, view, nil) // a root keeps the last level
			n.decodeFinal(view)
		}
	}
	return sends
}

// decodeFinal runs at a final-fragment root: reassemble the Width-bit
// string from the held BFS prefix and resolve it to a parent port (or
// the all-ones root marker).
func (n *node) decodeFinal(view *sim.NodeView) {
	width, held := n.sched.Width, n.cc.Held()
	if len(held) < width {
		panic(fmt.Sprintf("core: final fragment exposes %d of %d bits", len(held), width))
	}
	if !convergecast.Linked(held) {
		panic("core: final fragment's records do not link into one BFS prefix")
	}
	value := uint64(0)
	for k := range held {
		if held[k].Bits.Bit(0) {
			value |= 1 << uint(k)
		}
	}
	if value == 1<<uint(width)-1 {
		return // all-ones marker: this node is the MST root
	}
	port, ok := localorder.GlobalRankToPort(view.PortW, view.ID, n.far, int(value))
	if !ok {
		panic(fmt.Sprintf("core: final rank %d out of range for degree %d", value, view.Deg))
	}
	n.parentPort = port
}
