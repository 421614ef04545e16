package dynamic

import (
	"mstadvice/internal/graph"
	"mstadvice/internal/sim"
)

// Scenario builders: deterministic fault schedules for the simulator,
// derived from a sensitivity analysis so the faults can be aimed at (or
// away from) the MST.

// NonTreeLinkFailures fails the k lowest-ID non-tree edges from the given
// round onward. The Theorem 3 decoder still uses non-tree links in every
// packed phase (level reports during the broadcast, read by the choosing
// node), so failures from round 2 can break a decode; from the first
// round of the final window on, the decoder talks over tree edges only
// and its output never changes. Experiment E11 reports decodes under
// failures from round 2.
func NonTreeLinkFailures(s *Sensitivity, k, round int) *sim.Scenario {
	sc := &sim.Scenario{}
	for e := 0; e < s.G.M() && k > 0; e++ {
		if s.InTree[e] {
			continue
		}
		sc.Events = append(sc.Events, sim.ScenarioEvent{
			Round: round, Edge: graph.EdgeID(e), Action: sim.ActionLinkDown,
		})
		k--
	}
	return sc
}
