// Package advice defines the advising-scheme framework of Fraigniaud,
// Korman and Lebhar (SPAA 2007) and the harness that runs a scheme end to
// end: an oracle inspects the whole weighted network and assigns each node
// a bit string; a distributed decoder then spends the bits using only
// local inputs, and the harness verifies the output and reports the
// (m, t) profile — maximum/average advice size and round count — together
// with message statistics.
//
// The framework is problem-agnostic (internal/problem, DESIGN.md §2.8):
// the scheme's name resolves, through the problem registry, to the
// advice problem that interprets and verifies the raw per-node outputs —
// MST parent ports for the paper's schemes, class tags for topology
// recognition. Schemes not claimed by any registered problem verify as
// MST, the platform's first and default problem.
//
// See DESIGN.md §2.2 for the scheme framework and DESIGN.md §2.7 for
// the asynchronous execution path.
package advice

import (
	"context"
	"fmt"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/mst"
	"mstadvice/internal/problem"
	"mstadvice/internal/sim"
	"mstadvice/internal/synch"
)

// Scheme is an (m, t)-advising scheme: a centralized oracle plus a
// distributed decoder. It is an alias of problem.Scheme — schemes are
// defined once, on the platform, and the historical advice.Scheme name
// keeps working.
type Scheme = problem.Scheme

// PulseNeeder is implemented by schemes whose decoders are self-timed and
// require the simulator's quiescence synchronizer; Run enables it for
// them automatically.
type PulseNeeder = problem.PulseNeeder

// WorkerAdviser is implemented by schemes whose oracles can run on a
// worker pool with byte-identical output; Run forwards
// sim.Options.Workers to them so one knob sizes both halves of the
// pipeline.
type WorkerAdviser = problem.WorkerAdviser

// Stats summarise an advice assignment.
type Stats struct {
	MaxBits   int
	TotalBits int
	AvgBits   float64
}

// Measure computes size statistics for an assignment over n nodes (nil
// assignment = all-empty advice).
func Measure(assignment []*bitstring.BitString, n int) Stats {
	var s Stats
	for _, a := range assignment {
		bits := a.Len()
		s.TotalBits += bits
		if bits > s.MaxBits {
			s.MaxBits = bits
		}
	}
	if n > 0 {
		s.AvgBits = float64(s.TotalBits) / float64(n)
	}
	return s
}

// Result is the outcome of running a scheme on one instance.
type Result struct {
	Scheme string
	// Problem names the advice problem that verified the run ("mst" for
	// the paper's schemes).
	Problem string
	N, M    int

	Advice Stats

	Rounds     int
	Pulses     int
	Messages   int64
	MsgBits    int64
	MaxMsgBits int
	// Asynchronous-run accounting (sim.Options.Async; zero otherwise):
	// the virtual time and distinct delivery times of the event-driven
	// execution, and the α-synchronizer's separately-booked overhead.
	// On async runs Pulses is the number of simulated rounds and equals
	// the Rounds of the synchronous execution (DESIGN.md §2.7).
	VirtualTime  int64
	Steps        int
	SyncMessages int64
	SyncBits     int64
	// Sent, LinkDropped and Undelivered mirror the simulator's conserved
	// message accounting: Sent == Messages + LinkDropped, and Undelivered
	// final-round messages are included in Messages (see sim.Result).
	Sent        int64
	LinkDropped int64
	Undelivered int64
	// CongestViolations counts messages exceeding sim.Options.CongestB
	// (0 when auditing is off).
	CongestViolations int64
	// PerRound holds per-round message statistics when
	// sim.Options.RecordRoundStats is set.
	PerRound []sim.RoundStats

	// Root is the node that output "root" (-1 parent port) on MST runs;
	// -1 on other problems.
	Root graph.NodeID
	// ParentPorts is the raw distributed output, one int per node. For
	// the MST problem these are parent ports; other problems assign
	// their own meaning (topology recognition: the class tag).
	ParentPorts []int
	// Output is the problem-typed interpretation of ParentPorts.
	Output problem.Output
	// Verified is true iff the problem's verifier accepted the output
	// (for MST: it is exactly the unique rooted MST).
	Verified bool
	// VerifyErr explains a verification failure.
	VerifyErr error
}

// Run executes scheme end to end on g with the designated root and
// verifies the output. Engine failures (non-termination, protocol
// violations) are returned as errors; verification failures are reported
// in the Result so experiments can count them.
func Run(scheme Scheme, g *graph.Graph, root graph.NodeID, opt sim.Options) (*Result, error) {
	return RunCtx(context.Background(), scheme, g, root, opt)
}

// verifier is the resolved (problem name, output judge) pair of a run.
type verifier struct {
	name   string
	verify func(g *graph.Graph, root graph.NodeID, outputs []int) problem.Output
}

// forScheme resolves the problem that owns the scheme through the
// registry, defaulting to MST verification for schemes no registered
// problem claims (custom test schemes, and binaries that never linked a
// problem package — the pre-platform behaviour).
func forScheme(scheme Scheme) verifier {
	if p, _, ok := problem.BySchemeName(scheme.Name()); ok {
		return verifier{name: p.Name(), verify: p.VerifyOutput}
	}
	return verifier{name: "mst", verify: func(g *graph.Graph, _ graph.NodeID, outputs []int) problem.Output {
		out := mstOutput{}
		out.verified, out.root, out.err = VerifyOutput(g, outputs)
		return out
	}}
}

// mstOutput is the fallback MST verdict for unregistered schemes.
type mstOutput struct {
	root     graph.NodeID
	verified bool
	err      error
}

func (mstOutput) Problem() string         { return "mst" }
func (o mstOutput) OK() bool              { return o.verified }
func (o mstOutput) Err() error            { return o.err }
func (o mstOutput) MSTRoot() graph.NodeID { return o.root }
func (o mstOutput) String() string {
	if !o.verified {
		return fmt.Sprintf("mst: not verified: %v", o.err)
	}
	return fmt.Sprintf("mst: rooted at %d", o.root)
}

// RunCtx is Run with cancellation: the context is checked before the
// oracle runs and once per simulated round (via sim.Options.Context), so
// a long-lived server can abandon an in-flight run on shutdown instead
// of leaking the engine until it terminates on its own. A canceled run
// returns the context's error, wrapped.
func RunCtx(ctx context.Context, scheme Scheme, g *graph.Graph, root graph.NodeID, opt sim.Options) (*Result, error) {
	prob := forScheme(scheme)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("advice: problem %s: run of scheme %s canceled before the oracle: %w", prob.name, scheme.Name(), err)
	}
	if opt.Context == nil && ctx != context.Background() {
		opt.Context = ctx
	}
	if p, ok := scheme.(PulseNeeder); ok && p.NeedsPulses() {
		opt.EnablePulses = true
	}
	// Reject the pulse/async clash before the oracle runs: at large n the
	// Advise call is the expensive half, and the incompatibility is
	// already decidable here.
	if opt.Async && opt.EnablePulses {
		return nil, fmt.Errorf("advice: problem %s: scheme %s is pulse-driven (quiescence synchronizer); it has no asynchronous execution", prob.name, scheme.Name())
	}
	var assignment []*bitstring.BitString
	var err error
	if wa, ok := scheme.(WorkerAdviser); ok {
		assignment, err = wa.AdviseWorkers(g, root, opt.Workers)
	} else {
		assignment, err = scheme.Advise(g, root)
	}
	if err != nil {
		return nil, fmt.Errorf("advice: oracle %s: %w", scheme.Name(), err)
	}
	if assignment != nil && len(assignment) != g.N() {
		return nil, fmt.Errorf("advice: oracle %s returned %d strings for %d nodes", scheme.Name(), len(assignment), g.N())
	}
	nw := sim.NewNetwork(g)
	var simRes *sim.Result
	if opt.Async {
		// Asynchronous mode: the unmodified synchronous decoder runs on
		// the event-driven engine under the α-synchronizer (DESIGN.md
		// §2.7). Pulse-driven schemes were rejected above, before the
		// oracle ran.
		opt.Async = false // consumed here; RunAsync takes the wrapped factory
		simRes, err = nw.RunAsync(synch.Wrap(scheme.NewNode), assignment, opt)
	} else {
		simRes, err = nw.Run(scheme.NewNode, assignment, opt)
	}
	if err != nil {
		return nil, fmt.Errorf("advice: scheme %s: %w", scheme.Name(), err)
	}
	res := &Result{
		Scheme:            scheme.Name(),
		Problem:           prob.name,
		N:                 g.N(),
		M:                 g.M(),
		Advice:            Measure(assignment, g.N()),
		Rounds:            simRes.Rounds,
		Pulses:            simRes.Pulses,
		Messages:          simRes.Messages,
		MsgBits:           simRes.TotalBits,
		MaxMsgBits:        simRes.MaxMsgBits,
		VirtualTime:       simRes.VirtualTime,
		Steps:             simRes.Steps,
		SyncMessages:      simRes.SyncMessages,
		SyncBits:          simRes.SyncBits,
		Sent:              simRes.Sent,
		LinkDropped:       simRes.LinkDropped,
		Undelivered:       simRes.Undelivered,
		CongestViolations: simRes.CongestViolations,
		PerRound:          simRes.PerRound,
		ParentPorts:       simRes.ParentPorts,
		Root:              -1,
	}
	out := prob.verify(g, root, simRes.ParentPorts)
	res.Output = out
	res.Verified = out.OK()
	res.VerifyErr = out.Err()
	if ro, ok := out.(interface{ MSTRoot() graph.NodeID }); ok {
		res.Root = ro.MSTRoot()
	}
	return res, nil
}

// VerifyOutput checks that parent ports encode the unique rooted MST of g
// with exactly one root, returning the root found. It is the MST
// problem's verifier; the registered problem (internal/problem/mstp)
// delegates here.
func VerifyOutput(g *graph.Graph, parentPorts []int) (bool, graph.NodeID, error) {
	root := graph.NodeID(-1)
	for u, p := range parentPorts {
		if p == -1 {
			if root != -1 {
				return false, -1, fmt.Errorf("advice: nodes %d and %d both claim root", root, u)
			}
			root = graph.NodeID(u)
		}
	}
	if root == -1 {
		return false, -1, fmt.Errorf("advice: no node claims root")
	}
	if err := mst.VerifyRooted(g, parentPorts, root); err != nil {
		return false, root, err
	}
	return true, root, nil
}
