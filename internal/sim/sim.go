// Package sim is a synchronous message-passing network simulator for the
// LOCAL/CONGEST models of distributed computing (Peleg 2000), the setting
// of Fraigniaud, Korman and Lebhar (SPAA 2007).
//
// Execution proceeds in rounds. In every round each node receives the
// messages sent to it in the previous round, performs local computation,
// and sends at most one message per incident port. Nodes are state
// machines behind the Node interface; within a round all nodes execute
// concurrently on a goroutine pool (node processes map naturally onto
// goroutines) with a barrier between rounds, so results are deterministic
// regardless of scheduling.
//
// Information hygiene is enforced by construction: a node factory receives
// only the node's legal local input — its identifier, degree, incident
// edge weights by port, the advice string, and n — never the graph.
//
// The engine accounts rounds, message counts and message sizes in bits
// under an explicit CostModel (identifier, port and weight field widths),
// which is how upper bounds are checked against the CONGEST regime.
//
// See DESIGN.md §2.3 for the engine architecture and DESIGN.md §2.7
// for the asynchronous execution mode.
package sim

import (
	"context"
	"fmt"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/par"
)

// CostModel fixes the bit widths of message fields, derived from the
// network parameters as in the CONGEST(B) model with B = Θ(log n).
type CostModel struct {
	IDBits     int // width of a node identifier
	PortBits   int // width of a port number
	WeightBits int // width of an edge weight
}

// NewCostModel derives field widths from a graph. An identifier or a
// weight field is as wide as the largest value present when none is
// negative; once one is, it is the two's-complement width that holds
// every value present.
func NewCostModel(g *graph.Graph) CostModel {
	var idLo, idHi, wLo, wHi int64
	for u := 0; u < g.N(); u++ {
		id := g.ID(graph.NodeID(u))
		idLo, idHi = min(idLo, id), max(idHi, id)
	}
	for _, e := range g.Edges() {
		wLo, wHi = min(wLo, int64(e.W)), max(wHi, int64(e.W))
	}
	return CostModel{
		IDBits:     fieldBits(idLo, idHi),
		PortBits:   bitstring.WidthFor(uint64(max(g.MaxDegree()-1, 1))), // ports are 0..deg-1
		WeightBits: fieldBits(wLo, wHi),
	}
}

// fieldBits is the width of a field that holds lo (≤ 0) and hi (≥ 0):
// the unsigned width of max(hi, 1) when lo is 0, else the smallest
// two's-complement width whose range [−2^(w−1), 2^(w−1)−1] holds both.
func fieldBits(lo, hi int64) int {
	if lo == 0 {
		return bitstring.WidthFor(uint64(max(hi, 1)))
	}
	return 1 + max(bitstring.WidthFor(uint64(^lo)), bitstring.WidthFor(uint64(hi)))
}

// Message is anything a node sends along an edge. SizeBits reports the
// message's size under a cost model; it must not depend on mutable state.
type Message interface {
	SizeBits(cm CostModel) int
}

// Received pairs an incoming message with the local port it arrived on.
type Received struct {
	Port int
	Msg  Message
}

// Send pairs an outgoing message with the local port to send it on.
type Send struct {
	Port int
	Msg  Message
}

// NodeView is the legal local input of a node: everything it may know
// before communication starts.
type NodeView struct {
	ID     int64                // this node's (distinct) identifier
	N      int                  // number of nodes in the network (standard assumption)
	Deg    int                  // number of incident edges
	PortW  []graph.Weight       // weight of the incident edge at each port
	Advice *bitstring.BitString // oracle advice (may be nil or empty)
}

// Ctx carries per-round information into a node's handlers.
type Ctx struct {
	Round int       // current round, 1-based (0 during Start)
	Pulse int       // number of quiescence pulses observed so far
	Cost  CostModel // field widths, for algorithms that size their own messages
	// Out is an empty outbox with room for one send on every port of the
	// largest degree. A handler may append its sends to it and return
	// it; it belongs to the caller and is valid only during the call.
	Out []Send
}

// Node is a distributed algorithm instance at one node.
//
// Start is called once before round 1 and may already send. Round is
// called every round with the messages delivered this round (possibly
// none), sorted by arrival port. The inbox slice is owned by the engine
// and reused across rounds: it is valid only for the duration of the
// call, and a node must copy any Received values it wants to retain
// (retaining the messages themselves is fine — the engine never reuses
// them). The returned slice may be ctx.Out: the engine reads it before
// that worker's next call, so a node must not keep it. Output returns
// the node's MST output — the port of the edge to its parent, or -1 for
// "I am the root" — and whether the node has terminated. A node may
// send in the same round it terminates; the run ends once every node
// reports done; messages delivered in that final round are never
// consumed and are reported in Result.Undelivered, so message totals
// stay conserved.
type Node interface {
	Start(ctx *Ctx, view *NodeView) []Send
	Round(ctx *Ctx, view *NodeView, inbox []Received) []Send
	Output() (parentPort int, done bool)
}

// Factory builds the algorithm instance for one node from its local view.
type Factory func(view *NodeView) Node

// Options configure a run.
type Options struct {
	// Workers is the goroutine pool size; 0 means GOMAXPROCS and 1 runs
	// every node on the calling goroutine.
	Workers int
	// EnablePulses turns on the idealized quiescence synchronizer: at the
	// start of any round with no messages in flight (and not all nodes
	// done), Ctx.Pulse increments. Self-timed algorithms use pulses as
	// global phase barriers; see DESIGN.md for the idealization note.
	EnablePulses bool
	// CongestB, when positive, audits the run against the CONGEST(B)
	// model: every message larger than B bits counts as a violation in
	// Result.CongestViolations (the run continues; experiments report the
	// count). Asynchronous runs audit payload bits, so a synchronized
	// replay reports the count of the synchronous run it simulates.
	CongestB int
	// Scenario, when non-nil, schedules deterministic per-round faults —
	// link failures, repairs and weight perturbations — against named
	// edges (see Scenario).
	Scenario *Scenario
	// Context, when non-nil, cancels the run between rounds: a run whose
	// context expires returns ctx.Err() wrapped in a descriptive error
	// instead of finishing. The check costs one atomic load per round, so
	// long-lived servers (cmd/mstadviced) can shed decode work on
	// shutdown without leaking the engine's worker goroutines.
	Context context.Context
	// Async selects the event-driven asynchronous engine (DESIGN.md
	// §2.7) instead of the round engine. Network.Run rejects it — an
	// asynchronous run needs an AsyncFactory (Network.RunAsync);
	// advice.Run performs the wrapping through the α-synchronizer of
	// internal/synch automatically.
	Async bool
	// Latency draws per-message delivery delays in asynchronous mode;
	// nil means UniformLatency{Seed: 1} (uniform on [1, 8]).
	Latency LatencyModel
	// Scheduler is the adversarial delivery policy in asynchronous mode;
	// nil means FIFO.
	Scheduler Scheduler
}

// roundCap is the non-termination guard of an n-node run: a run that has
// not terminated after roundCap(n) rounds fails, and the asynchronous
// engine sizes its delivery budget from the same cap.
func roundCap(n int) int { return 50*(n+10) + 1000 }

// RoundStats are per-round message statistics.
type RoundStats struct {
	Round    int
	Messages int
	Bits     int64
}

// Result summarises a run.
//
// Message totals are conserved: every message a node hands to the router
// is counted exactly once, so Sent == Messages + LinkDropped always
// holds, and Messages - Undelivered is the number of messages
// actually consumed by a Round handler.
type Result struct {
	Rounds      int   // rounds executed until global termination
	Pulses      int   // quiescence pulses delivered
	Messages    int64 // total messages delivered into inbox slots
	TotalBits   int64 // total message bits under the cost model
	MaxMsgBits  int   // largest single message
	ParentPorts []int // per-node outputs
	// PerRound[k] counts the messages sent in round k (Start is round 0)
	// and their bits. The round engine fills it on every run;
	// asynchronous runs leave it nil.
	PerRound []RoundStats
	// CongestViolations counts messages exceeding Options.CongestB.
	CongestViolations int64
	// Sent counts every message handed to the router, delivered or not.
	Sent int64
	// LinkDropped counts messages discarded because a Scenario had taken
	// their link down.
	LinkDropped int64
	// Undelivered counts messages that were delivered into inbox slots in
	// the final round but never consumed, because every node had already
	// terminated (the computation is over, so the engine does not run
	// another round to hand them out). They are included in Messages. In
	// asynchronous mode these are the messages still in flight when the
	// last node terminated; they are accounted in Messages/SyncMessages
	// like every other send.
	Undelivered int64

	// Asynchronous-mode accounting (zero on synchronous runs; see
	// RunAsync and DESIGN.md §2.7).

	// VirtualTime is the virtual time of the last processed delivery.
	VirtualTime int64
	// Steps is the number of distinct virtual times at which deliveries
	// were processed.
	Steps int
	// SyncMessages counts synchronizer control messages (acks, safety
	// announcements); they are excluded from Messages so payload columns
	// stay comparable with a synchronous run.
	SyncMessages int64
	// SyncBits totals the synchronization overhead in bits: control
	// messages plus the pulse tags riding on payload messages.
	SyncBits int64
}

// Network binds a graph to the simulator and carries the immutable routing
// tables.
type Network struct {
	g    *graph.Graph
	cost CostModel
}

// NewNetwork prepares a simulator for g.
func NewNetwork(g *graph.Graph) *Network {
	return &Network{g: g, cost: NewCostModel(g)}
}

// base is the per-run state both engines share: the graph, the options
// with the resolved worker count and round cap, the node views and
// errors, and the Result being filled. Network.newBase builds it.
type base struct {
	g         *graph.Graph
	cost      CostModel
	opt       Options
	n         int
	workers   int
	maxRounds int

	views []*NodeView
	errs  []error
	res   *Result

	// portW backs every view's PortW slice (one allocation); the round
	// engine keeps it so Scenario weight perturbations can patch the
	// observed weights in place at the round barrier.
	portW []graph.Weight
	// far is the round engine's slot table: far[HalfOffset(u)+p] is the
	// inbox slot, HalfOffset(v)+DstPort(u, p), of the far end v of u's
	// half-edge at port p. The event engine leaves it nil.
	far []int32
}

// newBase validates advice and carves the node views out of one PortW
// array. advice[u] is handed to node u (nil entries become empty
// strings); a nil slice means no advice at all. With slotTable set it
// also fills far, the round engine's slot table, from the same edge
// records.
func (nw *Network) newBase(advice []*bitstring.BitString, opt Options, slotTable bool) (base, error) {
	g := nw.g
	n := g.N()
	if advice != nil && len(advice) != n {
		return base{}, fmt.Errorf("sim: %d advice strings for %d nodes", len(advice), n)
	}
	b := base{
		g:         g,
		cost:      nw.cost,
		opt:       opt,
		n:         n,
		workers:   par.Workers(opt.Workers),
		maxRounds: roundCap(n),
		views:     make([]*NodeView, n),
		errs:      make([]error, n),
		res:       &Result{ParentPorts: make([]int, n)},
		portW:     make([]graph.Weight, g.NumHalves()),
	}
	if slotTable {
		b.far = make([]int32, g.NumHalves())
	}
	edges := g.Edges()
	viewStore := make([]NodeView, n)
	for u := range n {
		uid := graph.NodeID(u)
		off := g.HalfOffset(uid)
		ports := g.Ports(uid)
		pw := b.portW[off : off+len(ports) : off+len(ports)]
		for p, e := range ports {
			rec := &edges[e]
			pw[p] = rec.W
			if slotTable {
				v, pv := rec.V, rec.PV
				if v == uid {
					v, pv = rec.U, rec.PU
				}
				b.far[off+p] = int32(g.HalfOffset(v)) + pv
			}
		}
		var adv *bitstring.BitString
		if advice != nil && advice[u] != nil {
			adv = advice[u]
		} else {
			adv = bitstring.New(0)
		}
		viewStore[u] = NodeView{ID: g.ID(uid), N: n, Deg: len(ports), PortW: pw, Advice: adv}
		b.views[u] = &viewStore[u]
	}
	return b, nil
}

// build runs the factory once per node, in node order, on the calling
// goroutine — verifylabel.Check numbers its verifiers by call order. A
// panicking factory becomes that node's error.
func build[N any](b *base, factory func(*NodeView) N) []N {
	nodes := make([]N, b.n)
	for u := range nodes {
		func() {
			defer capture(&b.errs[u], u, 0)
			nodes[u] = factory(b.views[u])
		}()
	}
	return nodes
}

// start runs every node's first handler, fn(w, u) on worker w, on the
// worker pool; a panic becomes node u's round-0 error.
func (b *base) start(fn func(w, u int)) {
	par.Ranges(b.workers, b.n, func(w, lo, hi int) {
		for u := lo; u < hi; u++ {
			func() {
				defer capture(&b.errs[u], u, 0)
				fn(w, u)
			}()
		}
	})
}

// firstErr returns the lowest-node error, matching the node order a
// sequential engine would report.
func (b *base) firstErr() error {
	for _, err := range b.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// capture converts a node panic into an engine error with context.
func capture(dst *error, u, round int) {
	if r := recover(); r != nil {
		*dst = fmt.Errorf("sim: node %d panicked in round %d: %v", u, round, r)
	}
}

// acct accumulates one worker's routing statistics within a round.
type acct struct {
	sent        int64
	messages    int64
	bits        int64
	linkDropped int64
	congest     int64
	maxBits     int64
}

// scratch is one worker's state within a round: the Ctx it hands its
// nodes, whose Out is the worker's outbox; the buffer its nodes' inbox
// slots are compacted into; and its routing statistics, merged at the
// barrier. A worker writes its own scratch on every step, so the pad
// keeps those writes off the cache line of the next worker's.
type scratch struct {
	ctx   Ctx
	inbox []Received
	acct
	_ [64]byte
}

// dropMark fills the slot of a message that a Scenario link failure
// discarded, so that a second send on that port in the same round is
// still caught; a node never receives it.
type dropMark struct{}

func (dropMark) SizeBits(CostModel) int { return 0 }

var dropped Message = dropMark{}

// engine is the per-run state of the round executor. All per-port buffers
// are flat slices indexed by the graph's CSR half-edge offsets
// (HalfOffset(u)+port) and are allocated once per run, never per round:
// the model delivers at most one message per port per round, so a fixed
// slot per half-edge replaces the append-grown inboxes and map-based
// duplicate detection of the earlier engine.
type engine struct {
	base
	nodes []Node

	// cur holds the messages delivered this round and next those sent
	// this round, one slot per half-edge: u's send on port p lands in
	// next[far[HalfOffset(u)+p]], the inbox slot of the far end, whose
	// port is the slot's position. nil marks an empty slot, so an
	// occupied one is a second send on that port this round. A node's
	// step empties its cur segment, so cur is empty when the two swap at
	// the barrier.
	cur, next []Message

	// Scenario state: events sorted by round, the next one to apply, and
	// the current per-edge link status.
	events    []ScenarioEvent
	nextEvent int
	linkDown  []bool

	scratch []scratch
}

// step runs node u's Round on the worker that owns sc: it compacts u's
// inbox slots, in port order, into the worker's inbox, emptying them,
// and routes what the node returns.
func (e *engine) step(sc *scratch, u int) {
	defer capture(&e.errs[u], u, sc.ctx.Round)
	uid := graph.NodeID(u)
	off := e.g.HalfOffset(uid)
	in := sc.inbox[:0]
	for p, msg := range e.cur[off : off+e.g.Degree(uid)] {
		if msg == nil {
			continue
		}
		e.cur[off+p] = nil
		if msg != dropped {
			in = append(in, Received{Port: p, Msg: msg})
		}
	}
	sc.ctx.Out = sc.ctx.Out[:0]
	e.route(sc, u, e.nodes[u].Round(&sc.ctx, e.views[u], in[:len(in):len(in)]))
}

// route delivers node u's sends into the next round's slots as soon as
// its handler returns. It stops at u's first bad send — an invalid port,
// a second send on one port, or a nil message, checked in that order —
// and records it as u's error. Each slot has one sender, so workers
// route without locks; statistics go to the worker's scratch, and a
// link failure drops by the message's edge alone, so the Result is
// identical for any worker count.
func (e *engine) route(sc *scratch, u int, out []Send) {
	if len(out) == 0 {
		return
	}
	sc.sent += int64(len(out))
	uid := graph.NodeID(u)
	off := e.g.HalfOffset(uid)
	deg := e.g.Degree(uid)
	for _, s := range out {
		if s.Port < 0 || s.Port >= deg {
			e.errs[u] = fmt.Errorf("sim: node %d sent on invalid port %d in round %d", u, s.Port, sc.ctx.Round)
			return
		}
		slot := &e.next[e.far[off+s.Port]]
		if *slot != nil {
			e.errs[u] = fmt.Errorf("sim: node %d sent twice on port %d in round %d", u, s.Port, sc.ctx.Round)
			return
		}
		if s.Msg == nil {
			e.errs[u] = fmt.Errorf("sim: node %d sent a nil message on port %d in round %d", u, s.Port, sc.ctx.Round)
			return
		}
		if e.linkDown != nil && e.linkDown[e.g.Ports(uid)[s.Port]] {
			*slot = dropped
			sc.linkDropped++
			continue
		}
		*slot = s.Msg
		bits := int64(s.Msg.SizeBits(e.cost))
		sc.messages++
		sc.bits += bits
		sc.maxBits = max(sc.maxBits, bits)
		if e.opt.CongestB > 0 && bits > int64(e.opt.CongestB) {
			sc.congest++
		}
	}
}

// barrier ends round: it reports the lowest node's error, if any node
// failed, or merges the workers' statistics into the Result, swaps the
// slot arrays and returns the number of messages delivered for the next
// round.
func (e *engine) barrier(round int) (int, error) {
	if err := e.firstErr(); err != nil {
		return 0, err
	}
	var delivered, roundBits, maxBits int64
	for i := range e.scratch {
		sc := &e.scratch[i]
		e.res.Sent += sc.sent
		delivered += sc.messages
		roundBits += sc.bits
		e.res.CongestViolations += sc.congest
		e.res.LinkDropped += sc.linkDropped
		maxBits = max(maxBits, sc.maxBits)
		sc.acct = acct{}
	}
	e.res.Messages += delivered
	e.res.TotalBits += roundBits
	e.res.MaxMsgBits = max(e.res.MaxMsgBits, int(maxBits))
	e.res.PerRound = append(e.res.PerRound, RoundStats{Round: round, Messages: int(delivered), Bits: roundBits})
	e.cur, e.next = e.next, e.cur
	return int(delivered), nil
}

// Run executes the algorithm on every node until all nodes report done.
// advice[u] is handed to node u (nil entries become empty strings); pass a
// nil slice for no advice at all. A run that has not terminated after
// 50·(n+10) + 1000 rounds fails.
//
// Runs are deterministic: for a fixed graph, factory and options, every
// field of the Result — including per-round statistics and Scenario
// fault accounting — is identical for any Workers setting.
func (nw *Network) Run(factory Factory, advice []*bitstring.BitString, opt Options) (*Result, error) {
	if opt.Async {
		return nil, fmt.Errorf("sim: Options.Async needs an asynchronous node (Network.RunAsync); synchronous algorithms run async through advice.Run, which wraps them in the internal/synch α-synchronizer")
	}
	b, err := nw.newBase(advice, opt, true)
	if err != nil {
		return nil, err
	}
	var events []ScenarioEvent
	if opt.Scenario != nil {
		if events, err = opt.Scenario.validate(b.g); err != nil {
			return nil, err
		}
	}
	nh := len(b.portW)
	e := &engine{
		base:    b,
		cur:     make([]Message, nh),
		next:    make([]Message, nh),
		events:  events,
		scratch: make([]scratch, b.workers),
	}
	if events != nil {
		e.linkDown = make([]bool, b.g.M())
	}
	maxDeg := b.g.MaxDegree()
	for i := range e.scratch {
		e.scratch[i] = scratch{
			ctx:   Ctx{Cost: e.cost, Out: make([]Send, 0, maxDeg)},
			inbox: make([]Received, 0, maxDeg),
		}
	}
	res := e.res

	// Round-0 events fire before the factories run, so the initial views
	// already reflect the scenario's starting state.
	e.applyEvents(0)
	e.nodes = build(&e.base, factory)
	if err := e.firstErr(); err != nil {
		return nil, err
	}

	allDone := func() bool {
		for _, nd := range e.nodes {
			if _, done := nd.Output(); !done {
				return false
			}
		}
		return true
	}

	// Round 0: Start.
	e.start(func(w, u int) {
		sc := &e.scratch[w]
		sc.ctx.Out = sc.ctx.Out[:0]
		e.route(sc, u, e.nodes[u].Start(&sc.ctx, e.views[u]))
	})
	inflight, err := e.barrier(0)
	if err != nil {
		return nil, err
	}

	round := 0
	for !allDone() {
		if round >= e.maxRounds {
			return nil, fmt.Errorf("sim: no termination after %d rounds", e.maxRounds)
		}
		if opt.Context != nil {
			if err := opt.Context.Err(); err != nil {
				return nil, fmt.Errorf("sim: run canceled after %d rounds: %w", round, err)
			}
		}
		round++
		e.applyEvents(round)
		if opt.EnablePulses && inflight == 0 {
			res.Pulses++
		}
		for i := range e.scratch {
			e.scratch[i].ctx.Round, e.scratch[i].ctx.Pulse = round, res.Pulses
		}
		par.Ranges(e.workers, e.n, func(w, lo, hi int) {
			sc := &e.scratch[w]
			for u := lo; u < hi; u++ {
				e.step(sc, u)
			}
		})
		if inflight, err = e.barrier(round); err != nil {
			return nil, err
		}
	}
	res.Rounds = round
	// Messages delivered in the final round are never consumed — every
	// node has terminated. Account for them explicitly so totals conserve.
	for _, msg := range e.cur {
		if msg != nil && msg != dropped {
			res.Undelivered++
		}
	}
	for u, nd := range e.nodes {
		res.ParentPorts[u], _ = nd.Output()
	}
	return res, nil
}
