package sim

import (
	"fmt"
	"slices"

	"mstadvice/internal/graph"
)

// ScenarioAction is the kind of one scheduled fault event.
type ScenarioAction int

const (
	// ActionLinkDown takes an edge out of service: every message routed
	// over it while down is discarded and counted in Result.LinkDropped.
	ActionLinkDown ScenarioAction = iota
	// ActionLinkUp restores a failed edge.
	ActionLinkUp
	// ActionSetWeight perturbs the weight both endpoints observe for an
	// edge (their NodeView.PortW entries). The graph itself is not
	// modified — the perturbation exists only inside the run.
	ActionSetWeight
)

func (a ScenarioAction) String() string {
	switch a {
	case ActionLinkDown:
		return "link-down"
	case ActionLinkUp:
		return "link-up"
	case ActionSetWeight:
		return "set-weight"
	default:
		return fmt.Sprintf("ScenarioAction(%d)", int(a))
	}
}

// ScenarioEvent schedules one fault: at the start of round Round (0 =
// before Start), the action is applied to Edge. Events are applied in
// (Round, declaration) order, before the round's handlers run, so an
// event at round r already governs the messages sent during round r.
type ScenarioEvent struct {
	Round  int
	Edge   graph.EdgeID
	Action ScenarioAction
	W      graph.Weight // new observed weight for ActionSetWeight
}

// Scenario is the simulator's fault model: a fixed schedule of link
// failures, repairs and weight perturbations, targeted at named edges
// and rounds and accounted deterministically for any worker count. The network model itself stays
// synchronous and reliable; protocols may legitimately fail under a
// scenario, and tests assert they never silently emit a wrong verified
// answer.
type Scenario struct {
	Events []ScenarioEvent
}

// validate checks every event against the graph and returns the events
// sorted by round (stable, so same-round events keep declaration order).
func (s *Scenario) validate(g *graph.Graph) ([]ScenarioEvent, error) {
	events := append([]ScenarioEvent(nil), s.Events...)
	for i, ev := range events {
		if ev.Round < 0 {
			return nil, fmt.Errorf("sim: scenario event %d has negative round %d", i, ev.Round)
		}
		if int(ev.Edge) < 0 || int(ev.Edge) >= g.M() {
			return nil, fmt.Errorf("sim: scenario event %d targets edge %d out of range [0,%d)", i, ev.Edge, g.M())
		}
		switch ev.Action {
		case ActionLinkDown, ActionLinkUp:
		case ActionSetWeight:
			if ev.W < 1 {
				return nil, fmt.Errorf("sim: scenario event %d sets non-positive weight %d", i, ev.W)
			}
		default:
			return nil, fmt.Errorf("sim: scenario event %d has unknown action %d", i, int(ev.Action))
		}
	}
	slices.SortStableFunc(events, func(a, b ScenarioEvent) int { return a.Round - b.Round })
	return events, nil
}

// applyEvents applies every pending event scheduled at or before round.
// Called single-threaded at the round barrier, so the fault state every
// worker observes is identical for any worker count.
func (e *engine) applyEvents(round int) {
	for e.nextEvent < len(e.events) && e.events[e.nextEvent].Round <= round {
		ev := e.events[e.nextEvent]
		e.nextEvent++
		switch ev.Action {
		case ActionLinkDown:
			e.linkDown[ev.Edge] = true
		case ActionLinkUp:
			e.linkDown[ev.Edge] = false
		case ActionSetWeight:
			rec := e.g.Edge(ev.Edge)
			e.portW[e.g.HalfOffset(rec.U)+int(rec.PU)] = ev.W
			e.portW[e.g.HalfOffset(rec.V)+int(rec.PV)] = ev.W
		}
	}
}
