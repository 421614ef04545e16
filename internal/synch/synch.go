// Package synch implements Awerbuch's α-synchronizer (JACM 1985), the
// classical simulation of a synchronous algorithm on an asynchronous
// network, so the unmodified round-scheduled decoders of this
// reproduction — in particular the Theorem 3 decoder of internal/core —
// run correctly on the event-driven asynchronous engine of internal/sim
// (see DESIGN.md §2.7).
//
// Every sim.Node is wrapped into a sim.AsyncNode that generates local
// pulses 1, 2, 3, …; pulse p executes the node's synchronous Round(p).
// The protocol per pulse is the textbook one:
//
//   - algorithm messages of round p are sent wrapped with a pulse tag;
//     every payload is acknowledged by its receiver;
//   - a node that has received acks for all its round-p payloads is
//     *safe* for p and announces SAFE(p) on every incident link;
//   - a node generates pulse p+1 once it is safe for p and has received
//     SAFE(p) from all neighbors — at that point every round-p message
//     addressed to it has provably arrived, so it can deliver the
//     buffered payloads to the synchronous node exactly as the round
//     barrier would.
//
// Neighboring pulse counters never differ by more than one, so a pulse
// tag of 2 bits (the pulse number mod 3, plus a 2-bit message kind)
// disambiguates every message; that tag — not the full integer carried
// in the Go struct — is what the cost model charges. Acks and safety
// announcements implement sim.ControlMessage and the payload tag
// implements sim.TaggedMessage, so the engine books the entire
// synchronization overhead in Result.SyncMessages/SyncBits while the
// payload columns (Messages, TotalBits, MaxMsgBits) stay byte-comparable
// with the synchronous run of the same algorithm — the overhead of
// simulating synchrony is measured, never hidden.
package synch

import (
	"fmt"
	"slices"

	"mstadvice/internal/sim"
)

// TagBits is the synchronization tag charged on every wrapped payload
// message: 2 bits of message kind plus 2 bits of pulse counter mod 3
// (neighbor pulses differ by at most one, so mod 3 disambiguates).
const TagBits = 4

// ControlBits is the size of a pure control message (ack or safety
// announcement): the same 4-bit tag, nothing else.
const ControlBits = 4

// maxPulses bounds a single node's pulse counter as a backstop against
// wrapped algorithms that never terminate (an isolated node advances
// pulses without any traffic the engine's event budget could cap).
const maxPulses = 1 << 22

// payload wraps one synchronous algorithm message with its sender's
// pulse number.
type payload struct {
	pulse int
	inner sim.Message
}

// SizeBits implements sim.Message: the inner message plus the tag.
func (p payload) SizeBits(cm sim.CostModel) int { return p.inner.SizeBits(cm) + TagBits }

// SyncTagBits implements sim.TaggedMessage.
func (p payload) SyncTagBits(cm sim.CostModel) int { return TagBits }

// ack acknowledges one payload of the given pulse.
type ack struct{ pulse int }

// SizeBits implements sim.Message.
func (ack) SizeBits(cm sim.CostModel) int { return ControlBits }

// SyncControl implements sim.ControlMessage.
func (ack) SyncControl() bool { return true }

// safe announces that the sender is safe for the given pulse: all its
// pulse-p payloads have been acknowledged.
type safe struct{ pulse int }

// SizeBits implements sim.Message.
func (safe) SizeBits(cm sim.CostModel) int { return ControlBits }

// SyncControl implements sim.ControlMessage.
func (safe) SyncControl() bool { return true }

// Wrap lifts a synchronous node factory into an asynchronous one: every
// node runs under its own α-synchronizer instance. The wrapped nodes
// report their pulse count through sim.Pulser, so Result.Pulses of an
// asynchronous run equals Result.Rounds of the synchronous run it
// simulates.
func Wrap(f sim.Factory) sim.AsyncFactory {
	return func(view *sim.NodeView) sim.AsyncNode {
		return &alphaNode{inner: f(view), deg: view.Deg, ctx: sim.Ctx{Out: make([]sim.Send, 0, view.Deg)}}
	}
}

// alphaNode is the α-synchronizer instance at one node.
type alphaNode struct {
	inner sim.Node
	deg   int

	pulse int  // last executed synchronous round (0 = Start only)
	done  bool // inner reported termination

	pendingAcks int  // own pulse payloads not yet acknowledged
	safeSent    bool // SAFE(pulse) already announced

	safeCur  int // SAFE(pulse) received
	safeNext int // SAFE(pulse+1) received (neighbor one pulse ahead)

	bufCur  []sim.Received // payloads tagged pulse   (input of round pulse+1)
	bufNext []sim.Received // payloads tagged pulse+1 (input of round pulse+2)
	scratch []sim.Received // reusable delivery buffer handed to inner

	// ctx is the synchronous context handed to inner. Its Out, of
	// capacity deg, stands in for the round engine's per-worker outbox:
	// wrapPayloads copies the sends out of it before the next call.
	ctx sim.Ctx
}

// Init runs the synchronous Start and opens pulse 0.
func (a *alphaNode) Init(ctx *sim.AsyncCtx, view *sim.NodeView) []sim.Send {
	a.ctx.Cost = ctx.Cost
	sends := a.inner.Start(&a.ctx, view)
	_, a.done = a.inner.Output()
	out := a.wrapPayloads(nil, sends)
	out = a.maybeSafe(out)
	return a.advance(ctx, view, out)
}

// Deliver processes a batch of arrivals and advances as many pulses as
// they enable.
func (a *alphaNode) Deliver(ctx *sim.AsyncCtx, view *sim.NodeView, inbox []sim.Received) []sim.Send {
	var out []sim.Send
	for _, r := range inbox {
		switch m := r.Msg.(type) {
		case payload:
			// Acknowledge immediately; the sender's safety for its pulse
			// depends on it.
			out = append(out, sim.Send{Port: r.Port, Msg: ack{m.pulse}})
			switch m.pulse {
			case a.pulse:
				a.bufCur = append(a.bufCur, sim.Received{Port: r.Port, Msg: m.inner})
			case a.pulse + 1:
				a.bufNext = append(a.bufNext, sim.Received{Port: r.Port, Msg: m.inner})
			default:
				panic(fmt.Sprintf("synch: payload tagged pulse %d at local pulse %d (protocol violation)", m.pulse, a.pulse))
			}
		case ack:
			if m.pulse != a.pulse {
				panic(fmt.Sprintf("synch: ack for pulse %d at local pulse %d (protocol violation)", m.pulse, a.pulse))
			}
			a.pendingAcks--
			if a.pendingAcks < 0 {
				panic("synch: more acks than payloads (protocol violation)")
			}
			out = a.maybeSafe(out)
		case safe:
			switch m.pulse {
			case a.pulse:
				a.safeCur++
			case a.pulse + 1:
				a.safeNext++
			default:
				panic(fmt.Sprintf("synch: SAFE(%d) at local pulse %d (protocol violation)", m.pulse, a.pulse))
			}
		default:
			panic(fmt.Sprintf("synch: unexpected message type %T (synchronizer links carry only wrapped traffic)", r.Msg))
		}
	}
	return a.advance(ctx, view, out)
}

// Output implements sim.AsyncNode by delegating to the synchronous node.
func (a *alphaNode) Output() (int, bool) { return a.inner.Output() }

// Pulses implements sim.Pulser.
func (a *alphaNode) Pulses() int { return a.pulse }

// maybeSafe announces SAFE(pulse) once all own payloads are
// acknowledged. Announced at most once per pulse.
func (a *alphaNode) maybeSafe(out []sim.Send) []sim.Send {
	if a.safeSent || a.pendingAcks > 0 {
		return out
	}
	a.safeSent = true
	for p := 0; p < a.deg; p++ {
		out = append(out, sim.Send{Port: p, Msg: safe{a.pulse}})
	}
	return out
}

// advance generates pulses while the synchronizer condition holds: safe
// for the current pulse (acks complete) and SAFE received from every
// neighbor. Each pulse delivers the buffered payloads to the synchronous
// node in port order — exactly the inbox the round barrier would build —
// and wraps its sends for the next pulse.
func (a *alphaNode) advance(ctx *sim.AsyncCtx, view *sim.NodeView, out []sim.Send) []sim.Send {
	for !a.done && a.pendingAcks == 0 && a.safeCur == a.deg {
		a.pulse++
		if a.pulse > maxPulses {
			panic(fmt.Sprintf("synch: %d pulses without termination (wrapped algorithm does not terminate?)", maxPulses))
		}
		// The inbox of round p is the payloads tagged p-1 (the current
		// buffer); what was buffered as "next" becomes current.
		a.scratch = append(a.scratch[:0], a.bufCur...)
		a.bufCur, a.bufNext = a.bufNext, a.bufCur[:0]
		a.safeCur, a.safeNext = a.safeNext, 0
		a.safeSent = false

		// The synchronous engine hands the inbox sorted by arrival port;
		// reproduce that exactly. At most one payload per port per round
		// (the synchronous model's invariant), so the order is total.
		slices.SortFunc(a.scratch, func(x, y sim.Received) int { return x.Port - y.Port })

		a.ctx.Round, a.ctx.Out = a.pulse, a.ctx.Out[:0]
		sends := a.inner.Round(&a.ctx, view, a.scratch)
		_, a.done = a.inner.Output()
		out = a.wrapPayloads(out, sends)
		out = a.maybeSafe(out)
	}
	return out
}

// wrapPayloads appends the synchronous node's sends to out, tagged with
// the current pulse, and arms the ack counter.
func (a *alphaNode) wrapPayloads(out, sends []sim.Send) []sim.Send {
	for _, s := range sends {
		out = append(out, sim.Send{Port: s.Port, Msg: payload{pulse: a.pulse, inner: s.Msg}})
	}
	a.pendingAcks += len(sends)
	return out
}
