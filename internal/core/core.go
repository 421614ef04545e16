// Package core implements the main contribution of Fraigniaud, Korman and
// Lebhar (SPAA 2007): the (O(1), O(log n))-advising scheme for distributed
// MST of Theorem 3, with maximum advice size m = 12 bits and round
// complexity Θ(log n).
//
// The oracle (oracle.go) runs the Borůvka phase decomposition and packs,
// for each of the first ⌈log log n⌉ phases, the fragment string
// A(F) = b_up‖b_level‖bin(chooser BFS index) into the fragment's nodes in
// BFS order under a per-node budget of c = 11 bits; one extra bit per node
// carries the final-stage string (the ⌈log n⌉-bit rank of each remaining
// fragment root's parent edge). The decoder (node.go) replays the phases:
// convergecast (internal/convergecast) of the unconsumed advice bits to
// each fragment root, decode, broadcast with per-node consumption updates
// and level reports, edge selection by the choosing node, and adoption
// across selected edges; then a depth-truncated collect recovers the
// final ranks. See DESIGN.md
// §2.2 for the three deliberate deviations (intrinsic tie-breaking order,
// explicit bookkeeping rounds, and record-carrying convergecasts) and
// EXPERIMENTS.md E4 for the measured (m, t) profile against the paper's
// (12, 9⌈log n⌉).
package core

import (
	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/sim"
)

// Scheme is the Theorem 3 advising scheme. The zero value uses the
// paper's budget c = 11 (m = 12) and the strict worst-case round
// schedule. Cap can be lowered for the E7 ablation; Advise then fails
// once Claim 1's packing no longer fits. Adaptive switches the decoder to
// the pulse-driven variant (see adaptiveNode), which needs the
// simulator's quiescence synchronizer and typically finishes well under
// the schedule.
type Scheme struct {
	// Cap is the per-node packed-advice budget; 0 means DefaultCap (11).
	Cap int
	// Adaptive selects the pulse-driven decoder instead of the fixed
	// schedule.
	Adaptive bool
}

func (s Scheme) cap() int {
	if s.Cap <= 0 {
		return DefaultCap
	}
	return s.Cap
}

// Name implements advice.Scheme.
func (s Scheme) Name() string {
	if s.Adaptive {
		return "core-adaptive"
	}
	return "core"
}

// NeedsPulses reports whether the decoder requires the simulator's
// quiescence synchronizer (advice.Run enables it automatically).
func (s Scheme) NeedsPulses() bool { return s.Adaptive }

// Advise implements advice.Scheme.
func (s Scheme) Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error) {
	return BuildAdvice(g, root, s.cap())
}

// AdviseWorkers implements advice.WorkerAdviser: the oracle runs its
// decomposition and encoding on the given worker pool, with output
// byte-identical to Advise.
func (s Scheme) AdviseWorkers(g *graph.Graph, root graph.NodeID, workers int) ([]*bitstring.BitString, error) {
	d, err := BuildAdviceDetailOpt(g, root, s.cap(), OracleOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return d.Advice, nil
}

// NewNode implements advice.Scheme.
func (s Scheme) NewNode(view *sim.NodeView) sim.Node {
	if s.Adaptive {
		return newAdaptiveNode(view, s.cap())
	}
	return newNode(view, s.cap())
}

// RoundBound returns the exact number of rounds the decoder uses on an
// n-node network (every node terminates at the end of the fixed
// schedule), and the paper's 9⌈log n⌉ bound for comparison.
func RoundBound(n int) (exact, paper int) {
	s := NewSchedule(n, DefaultCap)
	if n <= 1 {
		return 0, 0
	}
	return s.Total(), s.PaperBound()
}
