package core

import (
	"fmt"

	"mstadvice/internal/sim"
)

// adaptiveNode is the pulse-driven variant of the Theorem 3 decoder: an
// extension beyond the paper. Instead of the fixed worst-case schedule
// (every phase window padded to 2^(i+1)+2 rounds) it advances through the
// same stages whenever the network quiesces, using the simulator's
// idealized synchronizer pulses as global barriers. The advice, the
// oracle and the per-stage logic are identical to the strict decoder —
// only the clock differs — so correctness carries over while typical
// round counts drop well below the schedule (measured in experiment E4b).
//
// Stage layout (one pulse per transition):
//
//	per phase i = 1..P:   A  announce + convergecast streaming
//	                      B  root decodes A(F), broadcast + level reports
//	                      C  chooser selects, adoption crosses the edge
//	final:                F1 announce + truncated collect streaming
//	                      F2 roots decode the Width-bit string; all done
//
// Empty stages (e.g. phases after the graph has already merged) quiesce
// immediately and cost a single round — exactly the adaptivity the strict
// schedule gives away.
type adaptiveNode struct {
	node
	lastPulse  int
	stageRound int
}

func newAdaptiveNode(view *sim.NodeView, cap int) *adaptiveNode {
	return &adaptiveNode{node: *newNode(view, cap)}
}

// stageOf maps a pulse count to (phase, stage). Phases occupy three
// pulses each; the final window takes the last two. Stage -1 flags pulses
// past the protocol (all nodes are done by then).
func (a *adaptiveNode) stageOf() (phase, stage int) {
	p := a.lastPulse
	if p < 1 {
		return 0, -1
	}
	if p <= 3*a.sched.P {
		return (p-1)/3 + 1, (p - 1) % 3
	}
	f := p - 3*a.sched.P
	if f <= 2 {
		return a.sched.P + 1, 2 + f // 3 = F1, 4 = F2
	}
	return a.sched.P + 1, -1
}

const (
	stageConverge = 0
	stageBcast    = 1
	stageChoose   = 2
	stageFinalCol = 3
	stageFinalDec = 4
)

func (a *adaptiveNode) Start(ctx *sim.Ctx, view *sim.NodeView) []sim.Send {
	return a.node.Start(ctx, view)
}

func (a *adaptiveNode) Round(ctx *sim.Ctx, view *sim.NodeView, inbox []sim.Received) []sim.Send {
	if a.done {
		return nil
	}
	fresh := false
	if ctx.Pulse != a.lastPulse {
		if ctx.Pulse != a.lastPulse+1 {
			panic(fmt.Sprintf("core: adaptive decoder missed a pulse (%d -> %d)", a.lastPulse, ctx.Pulse))
		}
		a.lastPulse = ctx.Pulse
		a.stageRound = 0
		fresh = true
	} else if a.lastPulse > 0 {
		a.stageRound++
	}
	sends := ctx.Out[:0]
	for _, rcv := range inbox {
		sends = a.receive(view, rcv, sends)
	}
	phase, stage := a.stageOf()
	switch stage {
	case stageConverge:
		quota := 1 << uint(phase)
		switch {
		case fresh:
			sends = a.windowStart(view, sends)
		case a.stageRound == 1:
			sends = a.open(view, false, sends)
		default:
			sends = a.cc.Step(a.parentPort, a.stageRound, quota, phaseCharge, view, sends)
		}

	case stageBcast:
		if fresh {
			// A globally silent convergecast stage (all fragments
			// singletons, nothing announced) advances on back-to-back
			// pulses before stageRound 1 ever ran; a root holds just its
			// own record then.
			if a.parentPort == -1 && len(a.cc.Held()) == 0 {
				a.open(view, false, nil)
			}
			if a.qualifiesActive(phase, view) {
				sends = a.decodeAndBroadcast(phase, view, sends)
			}
		}

	case stageChoose:
		if fresh && a.chooser {
			sends = a.choose(view, sends)
		}

	case stageFinalCol:
		width := a.sched.Width
		switch {
		case fresh:
			sends = a.windowStart(view, sends)
		case a.stageRound == 1:
			sends = a.open(view, true, sends)
		default:
			sends = a.cc.Step(a.parentPort, a.stageRound, width, finalCharge, view, sends)
		}

	case stageFinalDec:
		if fresh {
			if a.parentPort == -1 {
				if len(a.cc.Held()) == 0 { // silent collect stage (see stageBcast)
					a.open(view, true, nil)
				}
				a.decodeFinal(view)
			}
			a.done = true
		}
	}
	return sends
}

func (a *adaptiveNode) Output() (int, bool) { return a.parentPort, a.done }
