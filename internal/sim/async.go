package sim

// This file is the asynchronous execution mode of the simulator (see
// DESIGN.md §2.7): a deterministic event-driven engine in which every
// message is delivered individually at a virtual time chosen by a seeded
// latency model and an adversarial scheduling policy, instead of at the
// next round barrier. Algorithms written for the synchronous model
// (sim.Node) run on it unmodified through the α-synchronizer of
// internal/synch, which wraps them into AsyncNodes.

import (
	"fmt"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/par"
)

// AsyncCtx carries per-delivery information into an asynchronous node's
// handlers.
type AsyncCtx struct {
	Time int64     // current virtual time (0 during Init)
	Cost CostModel // field widths, as in the synchronous Ctx
}

// AsyncNode is a distributed algorithm instance at one node of an
// asynchronous network. There are no rounds: Init is called once at
// virtual time 0 and may already send; Deliver is called every time one
// or more messages arrive at the node (all arrivals at the same virtual
// time are handed over in one call, in global send order), and may send
// in response. Unlike the synchronous model there is no one-message-
// per-port-per-round restriction: a handler may send any number of
// messages on any port, and each is delivered as its own event. The
// inbox slice is engine-owned and valid only during the call. Output has
// the synchronous meaning: parent port (or -1 for the root) and whether
// the node has terminated.
type AsyncNode interface {
	Init(ctx *AsyncCtx, view *NodeView) []Send
	Deliver(ctx *AsyncCtx, view *NodeView, inbox []Received) []Send
	Output() (parentPort int, done bool)
}

// AsyncFactory builds the asynchronous algorithm instance for one node.
type AsyncFactory func(view *NodeView) AsyncNode

// ControlMessage marks messages that are pure synchronization overhead
// (the α-synchronizer's acks and safety announcements). The engine
// accounts them in Result.SyncMessages / SyncBits instead of Messages /
// TotalBits, so the cost of simulating synchrony is reported separately
// from the cost of the algorithm itself.
type ControlMessage interface {
	Message
	SyncControl() bool
}

// TaggedMessage marks payload messages that carry a synchronization tag
// (the α-synchronizer's pulse number on wrapped algorithm messages). The
// tag bits are accounted in Result.SyncBits; the remaining bits count as
// payload, so a synchronous run and its synchronized asynchronous replay
// report identical payload bit totals.
type TaggedMessage interface {
	Message
	SyncTagBits(cm CostModel) int
}

// Pulser is implemented by asynchronous nodes that simulate synchronous
// rounds (the α-synchronizer); the engine reports the maximum pulse
// reached in Result.Pulses.
type Pulser interface {
	Pulses() int
}

// LatencyModel draws the raw delivery delay of each message. Delay must
// return a value ≥ 1 and must be a pure function of its arguments (plus
// the model's own immutable configuration): h is the flat index of the
// directed half-edge the message is sent on (graph.HalfOffset(u)+port)
// and k counts the messages previously sent on that half-edge. That
// makes every draw independent of worker scheduling, which is what keeps
// asynchronous runs deterministic for any worker count.
type LatencyModel interface {
	Name() string
	Delay(h int, k uint64) int64
}

// UniformLatency draws delays uniformly from [Min, Max] by hashing
// (Seed, half-edge, per-link sequence number) with SplitMix64, so the
// delay of a message depends only on its link and position in that
// link's traffic — never on global interleaving.
type UniformLatency struct {
	Seed     int64
	Min, Max int64 // 0,0 means the default [1, 8]
}

// Name implements LatencyModel.
func (l UniformLatency) Name() string { return "uniform" }

// bounds resolves the configured range, defaulting to [1, 8].
func (l UniformLatency) bounds() (int64, int64) {
	lo, hi := l.Min, l.Max
	if lo <= 0 {
		lo = 1
	}
	if hi < lo {
		hi = lo + 7
	}
	return lo, hi
}

// Delay implements LatencyModel.
func (l UniformLatency) Delay(h int, k uint64) int64 {
	lo, hi := l.bounds()
	x := uint64(l.Seed)
	x ^= uint64(h)*0x9e3779b97f4a7c15 + k*0xbf58476d1ce4e5b9
	// SplitMix64 finalizer: a bijective avalanche, so distinct
	// (seed, link, seq) triples give uncorrelated draws.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return lo + int64(x%uint64(hi-lo+1))
}

// Scheduler is an adversarial delivery policy: given the send time, the
// latency model's draw and the latest arrival time already assigned on
// the same directed half-edge (0 if none), it fixes the message's
// delivery time. The engine clamps the result to ≥ now+1 (messages
// cannot arrive at their send instant). Deliveries that land on the
// same tick at the same node are processed in global send order, so a
// policy that assigns equal times still resolves deterministically.
type Scheduler interface {
	Name() string
	Arrival(now, delay, lastArrival int64) int64
}

// FIFO preserves per-link send order: a message never overtakes an
// earlier one on the same directed half-edge (arrival = max(now+delay,
// latest arrival on the link); same-tick ties resolve in send order).
// This is the default scheduler.
type FIFO struct{}

// Name implements Scheduler.
func (FIFO) Name() string { return "fifo" }

// Arrival implements Scheduler.
func (FIFO) Arrival(now, delay, last int64) int64 {
	if t := now + delay; t > last {
		return t
	}
	return last
}

// LIFO is the overtaking adversary: while earlier messages are still in
// flight on a link (the link's latest assigned arrival lies in the
// future), a new message jumps the queue and arrives at the next tick,
// so newest traffic is served first. On an idle link it behaves like the
// raw latency draw.
type LIFO struct{}

// Name implements Scheduler.
func (LIFO) Name() string { return "lifo" }

// Arrival implements Scheduler.
func (LIFO) Arrival(now, delay, last int64) int64 {
	if last > now+1 {
		return now + 1
	}
	return now + delay
}

// MaxDelay is the slowest-link adversary: every message takes exactly
// Delay ticks (default 8 when zero), the worst case of the default
// uniform model. It preserves FIFO order (constant delays cannot
// reorder) while maximizing virtual time.
type MaxDelay struct {
	Delay int64
}

// Name implements Scheduler.
func (s MaxDelay) Name() string { return "maxdelay" }

// Arrival implements Scheduler.
func (s MaxDelay) Arrival(now, delay, last int64) int64 {
	d := s.Delay
	if d <= 0 {
		d = 8
	}
	return now + d
}

// event is one scheduled delivery. seq is the global send sequence
// number, assigned in deterministic (time, node, outbox) order; it is
// the tie-breaker that makes same-tick processing order, and with it the
// whole run, independent of worker count.
type event struct {
	time int64
	seq  uint64
	to   int32
	port int32
	msg  Message
}

// eventQueue is a binary min-heap of events ordered by (time, seq).
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	i := len(*q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		(*q)[i], (*q)[parent] = (*q)[parent], (*q)[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{}
	*q = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && (*q).less(l, small) {
			small = l
		}
		if r < last && (*q).less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// RunAsync executes an asynchronous algorithm on every node until all
// nodes report done. advice has the same meaning as in Run. The
// latency model defaults to UniformLatency (seeded with 1) and the
// scheduler to FIFO.
//
// Asynchronous runs are deterministic: for a fixed graph, factory,
// latency model and scheduler, every field of the Result — including
// VirtualTime, Steps and the synchronization-overhead accounting — is
// byte-identical for any Workers setting. Options.EnablePulses and
// Scenario are synchronous-model features and are rejected.
//
// Message accounting in asynchronous mode: Sent counts every message
// handed to the engine; payload messages land in Messages/TotalBits and
// control messages (ControlMessage) in SyncMessages/SyncBits, with
// payload synchronization tags (TaggedMessage) charged to SyncBits, so
// Sent == Messages + SyncMessages and the payload columns — including
// the CONGEST audit of payload bits — are directly comparable with a
// synchronous run of the same algorithm. Messages still in flight when
// the last node terminates are accounted the same way and additionally
// counted in Undelivered.
func (nw *Network) RunAsync(factory AsyncFactory, advice []*bitstring.BitString, opt Options) (*Result, error) {
	b, err := nw.newBase(advice, opt, false)
	if err != nil {
		return nil, err
	}
	if opt.EnablePulses {
		return nil, fmt.Errorf("sim: the quiescence synchronizer (EnablePulses) is a synchronous-model idealization; asynchronous runs use internal/synch")
	}
	if opt.Scenario != nil {
		return nil, fmt.Errorf("sim: Scenario fault injection is round-indexed and not supported in asynchronous mode")
	}
	n := b.n
	// Event budget replacing the round cap: a synchronized execution
	// delivers at most ~2m payloads plus ~4m+deg control messages per
	// simulated round.
	maxEvents := int64(b.maxRounds)*int64(6*b.g.M()+n+16) + 4096
	e := &asyncEngine{
		base:      b,
		lat:       opt.Latency,
		sched:     opt.Scheduler,
		done:      make([]bool, n),
		outboxes:  make([][]Send, n),
		sendCount: make([]uint64, len(b.portW)),
		lastArr:   make([]int64, len(b.portW)),
	}
	if e.lat == nil {
		e.lat = UniformLatency{Seed: 1}
	}
	if e.sched == nil {
		e.sched = FIFO{}
	}
	e.anodes = build(&e.base, factory)
	if err := e.firstErr(); err != nil {
		return nil, err
	}

	// Virtual time 0: Init every node (parallel), then route its sends.
	ctx := AsyncCtx{Time: 0, Cost: e.cost}
	e.start(func(_, u int) { e.outboxes[u] = e.anodes[u].Init(&ctx, e.views[u]) })
	for u := 0; u < n; u++ {
		if err := e.routeAsync(u, 0); err != nil {
			return nil, err
		}
		e.refreshDone(u)
	}
	if err := e.firstErr(); err != nil {
		return nil, err
	}

	batch := make([]event, 0, 64)
	dests := make([]int, 0, 64)
	inboxes := make(map[int][]Received, 64)
	for e.doneCount < n {
		if len(e.queue) == 0 {
			return nil, fmt.Errorf("sim: asynchronous deadlock at virtual time %d: %d of %d nodes terminated and no messages are in flight", e.res.VirtualTime, e.doneCount, n)
		}
		if e.delivered > maxEvents {
			return nil, fmt.Errorf("sim: no termination after %d asynchronous deliveries (virtual time %d)", e.delivered, e.res.VirtualTime)
		}
		if opt.Context != nil {
			if err := opt.Context.Err(); err != nil {
				return nil, fmt.Errorf("sim: asynchronous run canceled at virtual time %d: %w", e.res.VirtualTime, err)
			}
		}
		// Pop the full batch of deliveries sharing the earliest virtual
		// time. Heap order is (time, seq), so the batch comes out in
		// global send order.
		now := e.queue[0].time
		batch = batch[:0]
		for len(e.queue) > 0 && e.queue[0].time == now {
			batch = append(batch, e.queue.pop())
		}
		e.res.VirtualTime = now
		e.res.Steps++

		// Group per destination, preserving send order within a node.
		dests = dests[:0]
		for _, ev := range batch {
			u := int(ev.to)
			if _, seen := inboxes[u]; !seen {
				dests = append(dests, u)
			}
			inboxes[u] = append(inboxes[u], Received{Port: int(ev.port), Msg: ev.msg})
			e.account(ev.msg, false)
		}
		e.delivered += int64(len(batch))

		// Deliver in parallel across destination nodes: each entry is a
		// distinct node, handlers touch only their own node's state, and
		// per-node inboxes are already in deterministic order.
		ctx := AsyncCtx{Time: now, Cost: e.cost}
		par.Ranges(e.workers, len(dests), func(_, lo, hi int) {
			for _, u := range dests[lo:hi] {
				func() {
					defer capture(&e.errs[u], u, int(now))
					e.outboxes[u] = e.anodes[u].Deliver(&ctx, e.views[u], inboxes[u])
				}()
			}
		})

		// Route sequentially, in the deterministic destination order, so
		// send sequence numbers, latency draws and scheduler state evolve
		// identically for any worker count.
		for _, u := range dests {
			if err := e.routeAsync(u, now); err != nil {
				return nil, err
			}
			e.refreshDone(u)
		}
		if err := e.firstErr(); err != nil {
			return nil, err
		}
		for u := range inboxes {
			delete(inboxes, u)
		}
	}

	// Every node has terminated: messages still in flight will never be
	// consumed. Account them — same payload/control split — and mark
	// them Undelivered so totals conserve exactly as in the synchronous
	// engine (Sent == Messages + SyncMessages, Undelivered ⊆ delivered).
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		e.account(ev.msg, true)
	}

	res := e.res
	res.Sent = int64(e.seq)
	for u, nd := range e.anodes {
		res.ParentPorts[u], _ = nd.Output()
		if p, ok := nd.(Pulser); ok {
			if pulses := p.Pulses(); pulses > res.Pulses {
				res.Pulses = pulses
			}
		}
	}
	// A synchronizer-driven run simulates exactly Pulses synchronous
	// rounds; report them as Rounds so the columns of a synchronous run
	// and its asynchronous replay line up. Async-native algorithms have
	// no round structure and keep Rounds = 0.
	res.Rounds = res.Pulses
	return res, nil
}

// asyncEngine is the per-run state of the event executor.
type asyncEngine struct {
	base
	anodes []AsyncNode
	done   []bool
	// outboxes holds each handler's sends until they are routed in
	// deterministic node order after the parallel section.
	outboxes [][]Send

	lat   LatencyModel
	sched Scheduler

	queue     eventQueue
	seq       uint64   // messages handed to the engine so far (== Sent)
	delivered int64    // events delivered so far (termination budget)
	sendCount []uint64 // per-half-edge send counter, feeds LatencyModel
	lastArr   []int64  // per-half-edge latest assigned arrival, feeds Scheduler
	doneCount int
}

// refreshDone updates the termination counter after node u ran.
func (e *asyncEngine) refreshDone(u int) {
	if e.done[u] {
		return
	}
	if _, done := e.anodes[u].Output(); done {
		e.done[u] = true
		e.doneCount++
	}
}

// routeAsync schedules node u's outbox: every send gets the next global
// sequence number, a latency draw keyed by its directed half-edge and
// that link's send counter, and an arrival time from the scheduler
// (clamped to the future). Called sequentially in deterministic order.
func (e *asyncEngine) routeAsync(u int, now int64) error {
	out := e.outboxes[u]
	if len(out) == 0 {
		return nil
	}
	e.outboxes[u] = nil
	uid := graph.NodeID(u)
	deg := e.g.Degree(uid)
	base := e.g.HalfOffset(uid)
	for _, s := range out {
		if s.Port < 0 || s.Port >= deg {
			return fmt.Errorf("sim: node %d sent on invalid port %d at virtual time %d", u, s.Port, now)
		}
		if s.Msg == nil {
			return fmt.Errorf("sim: node %d sent a nil message on port %d at virtual time %d", u, s.Port, now)
		}
		h := base + s.Port
		k := e.sendCount[h]
		e.sendCount[h] = k + 1
		delay := e.lat.Delay(h, k)
		if delay < 1 {
			delay = 1
		}
		arrival := e.sched.Arrival(now, delay, e.lastArr[h])
		if arrival <= now {
			arrival = now + 1
		}
		if arrival > e.lastArr[h] {
			e.lastArr[h] = arrival
		}
		half := e.g.HalfAt(uid, s.Port)
		dp := e.g.DstPort(uid, s.Port)
		e.queue.push(event{time: arrival, seq: e.seq, to: int32(half.To), port: int32(dp), msg: s.Msg})
		e.seq++
	}
	return nil
}

// account books one message into the payload or synchronization-overhead
// columns (undelivered messages additionally bump Undelivered). Payload
// bits above Options.CongestB count as a CONGEST violation, the rule the
// round engine applies to every delivered message.
func (e *asyncEngine) account(msg Message, undelivered bool) {
	bits := int64(msg.SizeBits(e.cost))
	if cm, ok := msg.(ControlMessage); ok && cm.SyncControl() {
		e.res.SyncMessages++
		e.res.SyncBits += bits
	} else {
		tag := int64(0)
		if tm, ok := msg.(TaggedMessage); ok {
			tag = int64(tm.SyncTagBits(e.cost))
			if tag > bits {
				tag = bits
			}
		}
		payload := bits - tag
		e.res.Messages++
		e.res.TotalBits += payload
		e.res.SyncBits += tag
		if int(payload) > e.res.MaxMsgBits {
			e.res.MaxMsgBits = int(payload)
		}
		if e.opt.CongestB > 0 && payload > int64(e.opt.CongestB) {
			e.res.CongestViolations++
		}
	}
	if undelivered {
		e.res.Undelivered++
	}
}
