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

// NewCostModel derives field widths from a graph.
func NewCostModel(g *graph.Graph) CostModel {
	maxID := int64(1)
	for u := 0; u < g.N(); u++ {
		if id := g.ID(graph.NodeID(u)); id > maxID {
			maxID = id
		}
	}
	return CostModel{
		IDBits:     bitstring.WidthFor(uint64(maxID)),
		PortBits:   bitstring.WidthFor(uint64(max(g.MaxDegree()-1, 1))), // ports are 0..deg-1
		WeightBits: bitstring.WidthFor(uint64(max(int64(g.MaxWeight()), 1))),
	}
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
}

// Node is a distributed algorithm instance at one node.
//
// Start is called once before round 1 and may already send. Round is
// called every round with the messages delivered this round (possibly
// none), sorted by arrival port. The inbox slice is owned by the engine
// and reused across rounds: it is valid only for the duration of the
// call, and a node must copy any Received values it wants to retain
// (retaining the messages themselves is fine — the engine never reuses
// them). Output returns the node's MST output — the port of the edge to
// its parent, or -1 for "I am the root" — and whether the node has
// terminated. A node may send in the same round it terminates; the run
// ends once every node reports done; messages delivered in that final
// round are never consumed and are reported in Result.Undelivered, so
// message totals stay conserved.
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

// Cost returns the network's cost model.
func (nw *Network) Cost() CostModel { return nw.cost }

// base is the per-run state both engines share: the graph, the options
// with the resolved worker count and round cap, the node views, outboxes
// and errors, and the Result being filled. Network.newBase builds it.
type base struct {
	g         *graph.Graph
	cost      CostModel
	opt       Options
	n         int
	workers   int
	maxRounds int

	views    []*NodeView
	outboxes [][]Send
	errs     []error
	res      *Result

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
		outboxes:  make([][]Send, n),
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

// start runs every node's first handler, fn(u), on the worker pool; a
// panic becomes node u's round-0 error.
func (b *base) start(fn func(u int)) {
	par.Ranges(b.workers, b.n, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			func() {
				defer capture(&b.errs[u], u, 0)
				fn(u)
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

// acct accumulates one worker's routing statistics within a round. It is
// padded to a cache line so workers writing their own accumulator do not
// false-share.
type acct struct {
	messages    int64
	bits        int64
	linkDropped int64
	congest     int64
	maxBits     int64
	_           [16]byte
}

// engine is the per-run state of the round executor. All per-port buffers
// are flat slices indexed by the graph's CSR half-edge offsets
// (HalfOffset(u)+port) and are allocated once per run, never per round:
// the model delivers at most one message per port per round, so a fixed
// slot per half-edge replaces the append-grown inboxes and map-based
// duplicate detection of the earlier engine.
type engine struct {
	base
	nodes []Node

	// slots holds the inbox slot of every half-edge: a message routed to
	// node v on port p lands in slots[HalfOffset(v)+p], found through
	// base.far. Msg == nil marks an empty slot. Slots are compacted into
	// the node's inbox view, which sets each Port, and cleared during its
	// Round call, so a single buffer serves all rounds.
	slots []Received
	// stamps detects duplicate sends: stamps[HalfOffset(u)+port] is set to
	// the current round stamp when u sends on port, so a second send on
	// the same port in the same round is caught without a per-node map.
	stamps []uint32

	// Scenario state: events sorted by round, the next one to apply, and
	// the current per-edge link status.
	events    []ScenarioEvent
	nextEvent int
	linkDown  []bool

	accts []acct
}

// route validates and delivers the outboxes produced in this round,
// returning the number of messages in flight for the next round. Delivery
// is parallel across senders: each message's destination slot is unique
// (one slot per half-edge), statistics go to per-worker accumulators
// merged at the barrier, and link-failure drops depend only on the
// message's edge, so the result is byte-identical for any worker count.
func (e *engine) route(round int) (int, error) {
	if err := e.firstErr(); err != nil {
		return 0, err
	}
	total := int64(0)
	for u := 0; u < e.n; u++ {
		total += int64(len(e.outboxes[u]))
	}
	if total == 0 {
		e.res.PerRound = append(e.res.PerRound, RoundStats{Round: round})
		return 0, nil
	}
	// Rounds are far below 2^32, so the stamp is unique per route call.
	stamp := uint32(round) + 1
	par.Ranges(e.workers, e.n, func(w, lo, hi int) {
		a := &e.accts[w]
		g := e.g
		for u := lo; u < hi; u++ {
			out := e.outboxes[u]
			if len(out) == 0 {
				continue
			}
			e.outboxes[u] = nil
			uid := graph.NodeID(u)
			base := g.HalfOffset(uid)
			deg := g.Degree(uid)
			for _, s := range out {
				if s.Port < 0 || s.Port >= deg {
					e.errs[u] = fmt.Errorf("sim: node %d sent on invalid port %d in round %d", u, s.Port, round)
					break
				}
				if e.stamps[base+s.Port] == stamp {
					e.errs[u] = fmt.Errorf("sim: node %d sent twice on port %d in round %d", u, s.Port, round)
					break
				}
				e.stamps[base+s.Port] = stamp
				if s.Msg == nil {
					e.errs[u] = fmt.Errorf("sim: node %d sent a nil message on port %d in round %d", u, s.Port, round)
					break
				}
				if e.linkDown != nil && e.linkDown[g.Ports(uid)[s.Port]] {
					a.linkDropped++
					continue
				}
				e.slots[e.far[base+s.Port]].Msg = s.Msg
				bits := int64(s.Msg.SizeBits(e.cost))
				a.messages++
				a.bits += bits
				if bits > a.maxBits {
					a.maxBits = bits
				}
				if e.opt.CongestB > 0 && bits > int64(e.opt.CongestB) {
					a.congest++
				}
			}
		}
	})
	e.res.Sent += total
	var delivered, roundBits, maxBits int64
	for w := range e.accts {
		a := &e.accts[w]
		delivered += a.messages
		roundBits += a.bits
		e.res.CongestViolations += a.congest
		e.res.LinkDropped += a.linkDropped
		if a.maxBits > maxBits {
			maxBits = a.maxBits
		}
		*a = acct{}
	}
	e.res.Messages += delivered
	e.res.TotalBits += roundBits
	if int(maxBits) > e.res.MaxMsgBits {
		e.res.MaxMsgBits = int(maxBits)
	}
	if err := e.firstErr(); err != nil {
		return 0, err
	}
	e.res.PerRound = append(e.res.PerRound, RoundStats{Round: round, Messages: int(delivered), Bits: roundBits})
	return int(delivered), nil
}

// stepNode compacts node u's inbox slots into a port-sorted inbox view,
// setting each message's arrival port from its slot's position, runs the
// Round handler, and clears the consumed slots for the next delivery.
// Slots are already in port order, so no sorting is needed.
func (e *engine) stepNode(ctx *Ctx, u int) {
	defer capture(&e.errs[u], u, ctx.Round)
	uid := graph.NodeID(u)
	base := e.g.HalfOffset(uid)
	seg := e.slots[base : base+e.g.Degree(uid)]
	k := 0
	for p := range seg {
		if msg := seg[p].Msg; msg != nil {
			seg[p].Msg = nil
			seg[k] = Received{Port: p, Msg: msg}
			k++
		}
	}
	e.outboxes[u] = e.nodes[u].Round(ctx, e.views[u], seg[:k:k])
	for i := 0; i < k; i++ {
		seg[i] = Received{}
	}
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
		base:   b,
		slots:  make([]Received, nh),
		stamps: make([]uint32, nh),
		events: events,
		accts:  make([]acct, b.workers),
	}
	if events != nil {
		e.linkDown = make([]bool, b.g.M())
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
	ctx := Ctx{Round: 0, Cost: e.cost}
	e.start(func(u int) { e.outboxes[u] = e.nodes[u].Start(&ctx, e.views[u]) })
	inflight, err := e.route(0)
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
			ctx.Pulse++
			res.Pulses++
		}
		ctx.Round = round
		par.Ranges(e.workers, e.n, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				e.stepNode(&ctx, u)
			}
		})
		if inflight, err = e.route(round); err != nil {
			return nil, err
		}
	}
	res.Rounds = round
	// Messages delivered in the final round are never consumed — every
	// node has terminated. Account for them explicitly so totals conserve.
	for i := range e.slots {
		if e.slots[i].Msg != nil {
			res.Undelivered++
		}
	}
	for u, nd := range e.nodes {
		res.ParentPorts[u], _ = nd.Output()
	}
	return res, nil
}
