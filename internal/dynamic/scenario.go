package dynamic

import (
	"math/rand"

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

// TolerantPerturbations schedules k weight perturbations on non-tree
// edges that stay strictly above their tolerance, drawn deterministically
// from rng: churn the MST is insensitive to. Events are spread over
// rounds [round, round+k).
func TolerantPerturbations(s *Sensitivity, k, round int, rng *rand.Rand) *sim.Scenario {
	sc := &sim.Scenario{}
	var nonTree []graph.EdgeID
	for e := 0; e < s.G.M(); e++ {
		if !s.InTree[e] {
			nonTree = append(nonTree, graph.EdgeID(e))
		}
	}
	if len(nonTree) == 0 {
		return sc
	}
	for i := 0; i < k; i++ {
		e := nonTree[rng.Intn(len(nonTree))]
		w := s.G.Weight(e) + graph.Weight(rng.Intn(5)+1) // raising never crosses the tolerance
		sc.Events = append(sc.Events, sim.ScenarioEvent{
			Round: round + i, Edge: e, Action: sim.ActionSetWeight, W: w,
		})
	}
	return sc
}
