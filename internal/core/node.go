package core

import (
	"cmp"
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

	// Per-window state. sent counts the records a relay has sent up
	// this window; batches are the record batches delivered this round,
	// read before it ends (see stream).
	sent    int
	batches []batch
	myLevel int
	haveLvl bool
	chooser bool
	chUp    bool

	// sendBuf backs the outbox returned from Start and Round. The engine
	// consumes the outbox before the next compute phase, and a node sends
	// at most one message per port per round, so one buffer of capacity
	// deg serves the whole run. recMsgs are the two alternating record
	// batches of the convergecasts (see messages.go for how long a sent
	// batch stays valid); a fragment root sends no records, so the one
	// due next holds its collection instead (see held).
	sendBuf []sim.Send
	recMsgs [2]recMsg
	recFlip int

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

// batch is one record batch delivered this round and the port it came
// on. The records belong to the sender's buffer and are read only within
// the round they arrive in.
type batch struct {
	port int
	m    *recMsg
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
	n.batches = n.batches[:0]
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
		n.batches = append(n.batches, batch{rcv.Port, m})
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

// annotatePending marks a record whose parent-side fields are filled by
// the first relaying node. Identifiers are arbitrary int64s, so a separate
// in-band value cannot be reserved; instead the sender of its own record
// uses this constant and the direct parent always overwrites it (records
// at hop 0 are exactly the unannotated ones).
const annotatePending int64 = -1 << 62

// annotate completes a record that arrived on port p. A direct child's
// own record arrives unannotated: this node is its parent and alone
// knows the connecting edge's weight and port.
func annotate(r rec, view *sim.NodeView, p int) rec {
	if r.ParentID == annotatePending {
		r.ParentID, r.W, r.PortAtParent = view.ID, view.PortW[p], int32(p)
	}
	return r
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
		return n.stream(quota, false, view, sends)

	case slot == ConvergeEnd(i):
		if n.parentPort != -1 {
			return sends
		}
		n.stream(quota, false, view, nil) // a root keeps the last level
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
// round after the window's announce) with its own record: a fragment
// root holds it, any other node sends it to its parent. A phase record
// carries the child count and the unconsumed packed advice; a final
// record carries the advice for its final-stage bit alone.
func (n *node) open(view *sim.NodeView, final bool, sends []sim.Send) []sim.Send {
	own := rec{ID: view.ID, ParentID: annotatePending, Bits: view.Advice, ChildCount: -1}
	if !final {
		own.ChildCount = n.nkids
		own.Off = int32(min(1+n.cons, view.Advice.Len()))
	}
	m := n.nextBatch(final, 1)
	m.Recs = append(m.Recs, own)
	if n.parentPort == -1 {
		n.sent = 0
		return sends
	}
	m.Recs[0].Hop = 1
	n.sent = 1
	return n.flush(m, sends)
}

// held is a fragment root's collection: the first records of its BFS
// order, its own first. It lives in the record buffer due next, which a
// root never sends, so serving as a root costs no memory of its own.
func (n *node) held() []rec { return n.recMsgs[n.recFlip].Recs }

// qualifiesActive reports whether this fragment root collected a complete
// tree of an active, non-spanning fragment at phase i and should decode.
func (n *node) qualifiesActive(i int, view *sim.NodeView) bool {
	held := n.held()
	if n.parentPort != -1 || len(held) == 0 {
		return false
	}
	return len(held) < 1<<uint(i) && len(held) < view.N && whole(held)
}

// whole reports whether recs are a whole fragment tree in BFS order:
// after the root's own record they fall into consecutive runs, one per
// record in turn, each as long as that record's announced child count
// and naming it as parent. A record whose parent is missing or out of
// place breaks a run, so it counts toward the size and marks the
// fragment incomplete.
func whole(recs []rec) bool {
	next := 1
	for i, t := range recs {
		c := int(t.ChildCount)
		if i >= next || c < 0 || next+c > len(recs) {
			return false
		}
		for _, k := range recs[next : next+c] {
			if k.ParentID != t.ID {
				return false
			}
		}
		next += c
	}
	return true
}

// windowStart resets per-window state and announces to the parent.
// Bumping the window stamp invalidates all per-port child and level
// entries at once.
func (n *node) windowStart(view *sim.NodeView, sends []sim.Send) []sim.Send {
	n.wnum++
	n.nkids = 0
	n.haveLvl = false
	n.chooser = false
	n.recMsgs[n.recFlip].Recs = n.held()[:0] // no collection until open
	n.sent = 0
	if n.parentPort != -1 {
		sends = append(sends, sim.Send{Port: n.parentPort, Msg: announceMsg{}})
	}
	return sends
}

// stream runs one round of a convergecast whose prefix cut is limit (the
// quota, or the width in the final collect). Every node sends its own
// record at slot 1 and each depth-d record arrives d rounds later, so
// this round's batches, ordered by the (weight, port) of the child edge
// each came on and concatenated, are exactly the next level of this
// node's BFS order. A fragment root holds them, up to limit records in
// all; any other node forwards them within its limit and keeps nothing.
// The hop filter and the own-identifier drop bound the streams that a
// cycle of corrupted parent pointers could otherwise keep alive.
func (n *node) stream(limit int, final bool, view *sim.NodeView, sends []sim.Send) []sim.Send {
	if len(n.batches) == 0 {
		return sends
	}
	slices.SortFunc(n.batches, func(a, b batch) int {
		return cmp.Or(cmp.Compare(view.PortW[a.port], view.PortW[b.port]), cmp.Compare(a.port, b.port))
	})
	if n.parentPort == -1 {
		for _, b := range n.batches {
			for _, r := range b.m.Recs {
				n.hold(annotate(r, view, b.port), limit)
			}
		}
		return sends
	}
	if n.sent >= limit {
		return sends
	}
	pending := 0
	for _, b := range n.batches {
		pending += len(b.m.Recs)
	}
	m := n.nextBatch(final, min(limit-n.sent, pending))
	for _, b := range n.batches {
		for _, r := range b.m.Recs {
			if n.sent == limit {
				break
			}
			if r.ID == view.ID {
				continue
			}
			n.sent++
			if int(r.Hop)+1 > limit {
				continue
			}
			r = annotate(r, view, b.port)
			r.Hop++
			m.Recs = append(m.Recs, r)
		}
	}
	return n.flush(m, sends)
}

// hold adds a record to a fragment root's collection, which keeps the
// first limit records of the BFS order; a repeat of a held record is
// ignored.
func (n *node) hold(r rec, limit int) {
	m := &n.recMsgs[n.recFlip]
	if len(m.Recs) >= limit {
		return
	}
	for k := range m.Recs {
		if m.Recs[k].ID == r.ID {
			return
		}
	}
	m.Recs = append(m.Recs, r)
}

// nextBatch returns the emptied one of the two alternating record
// buffers with room for size records. The batch sent in round r is read
// by the receiver in round r+1, while this node is already filling the
// other buffer, and is free again by round r+2.
func (n *node) nextBatch(final bool, size int) *recMsg {
	m := &n.recMsgs[n.recFlip]
	m.Recs = slices.Grow(m.Recs[:0], size)
	m.Final = final
	return m
}

// flush sends a filled batch to the parent, unless it is empty.
func (n *node) flush(m *recMsg, sends []sim.Send) []sim.Send {
	if len(m.Recs) == 0 {
		return sends
	}
	n.recFlip ^= 1
	return append(sends, sim.Send{Port: n.parentPort, Msg: m})
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
	held := n.held()
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
		return n.open(view, true, sends)

	case slot <= width:
		return n.stream(width, true, view, sends)

	case slot == n.sched.FinalDecodeSlot():
		if n.parentPort == -1 {
			n.stream(width, true, view, nil) // a root keeps the last level
			n.decodeFinal(view)
		}
	}
	return sends
}

// decodeFinal runs at a final-fragment root: reassemble the Width-bit
// string from the held BFS prefix and resolve it to a parent port (or
// the all-ones root marker).
func (n *node) decodeFinal(view *sim.NodeView) {
	width, held := n.sched.Width, n.held()
	if len(held) < width {
		panic(fmt.Sprintf("core: final fragment exposes %d of %d bits", len(held), width))
	}
	if !linked(held) {
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
	port, ok := localorder.GlobalRankToPort(view.PortW, view.ID, n.nbrID, n.nbrPort, int(value))
	if !ok {
		panic(fmt.Sprintf("core: final rank %d out of range for degree %d", value, view.Deg))
	}
	n.parentPort = port
}

// linked reports whether recs are a BFS prefix of a tree: each record
// after the first names an earlier one as its parent, in nondecreasing
// position. The final collect carries no child counts, so this is all a
// final root can check.
func linked(recs []rec) bool {
	p := 0
	for k := 1; k < len(recs); k++ {
		for recs[p].ID != recs[k].ParentID {
			if p++; p == k {
				return false
			}
		}
	}
	return true
}
