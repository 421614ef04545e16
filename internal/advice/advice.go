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

// Result is the outcome of running a scheme on one instance: the advice
// profile, the engine's run record and the problem's verdict.
type Result struct {
	Scheme string
	// Problem names the advice problem that verified the run ("mst" for
	// the paper's schemes).
	Problem string
	N, M    int

	Advice Stats

	// Result is the engine's record of the decoder run: rounds, the
	// conserved message accounting and the raw per-node outputs
	// (ParentPorts). For the MST problem the outputs are parent ports;
	// other problems assign their own meaning (topology recognition: the
	// class tag). On asynchronous runs (sim.Options.Async) Pulses is the
	// number of simulated rounds and equals the Rounds of the synchronous
	// execution (DESIGN.md §2.7).
	sim.Result

	// Root is the node that output "root" (-1 parent port) on MST runs;
	// -1 on other problems.
	Root graph.NodeID
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
	// Reject the pulse/async clash before the oracle runs: at large n the
	// Advise call is the expensive half, and the incompatibility is
	// already decidable here.
	opt, err := decodeOptions(ctx, prob, scheme, opt)
	if err != nil {
		return nil, err
	}
	var assignment []*bitstring.BitString
	if wa, ok := scheme.(WorkerAdviser); ok {
		assignment, err = wa.AdviseWorkers(g, root, opt.Workers)
	} else {
		assignment, err = scheme.Advise(g, root)
	}
	if err != nil {
		return nil, fmt.Errorf("advice: oracle %s: %w", scheme.Name(), err)
	}
	return decode(prob, scheme, g, root, assignment, opt)
}

// DecodeCtx is the decode-and-verify half of RunCtx: it runs the
// scheme's distributed decoder on a given advice assignment — a stored
// snapshot's, say — and judges the output with the problem that owns the
// scheme. Cancellation, engine errors and the Result are as in RunCtx.
func DecodeCtx(ctx context.Context, scheme Scheme, g *graph.Graph, root graph.NodeID, assignment []*bitstring.BitString, opt sim.Options) (*Result, error) {
	prob := forScheme(scheme)
	opt, err := decodeOptions(ctx, prob, scheme, opt)
	if err != nil {
		return nil, err
	}
	return decode(prob, scheme, g, root, assignment, opt)
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
		return VerifyOutput(g, outputs)
	}}
}

// decodeOptions completes the engine options of one decoder run: ctx
// cancels it, and a pulse-driven scheme gets the quiescence
// synchronizer — which has no asynchronous execution, so that pairing
// is an error.
func decodeOptions(ctx context.Context, prob verifier, scheme Scheme, opt sim.Options) (sim.Options, error) {
	if opt.Context == nil && ctx != context.Background() {
		opt.Context = ctx
	}
	if p, ok := scheme.(PulseNeeder); ok && p.NeedsPulses() {
		opt.EnablePulses = true
	}
	if opt.Async && opt.EnablePulses {
		return opt, fmt.Errorf("advice: problem %s: scheme %s is pulse-driven (quiescence synchronizer); it has no asynchronous execution", prob.name, scheme.Name())
	}
	return opt, nil
}

// decode runs the scheme's decoder on the assignment under options
// completed by decodeOptions, and verifies the output with prob.
func decode(prob verifier, scheme Scheme, g *graph.Graph, root graph.NodeID, assignment []*bitstring.BitString, opt sim.Options) (*Result, error) {
	nw := sim.NewNetwork(g)
	var simRes *sim.Result
	var err error
	if opt.Async {
		// Asynchronous mode: the unmodified synchronous decoder runs on
		// the event-driven engine under the α-synchronizer (DESIGN.md
		// §2.7).
		opt.Async = false // consumed here; RunAsync takes the wrapped factory
		simRes, err = nw.RunAsync(synch.Wrap(scheme.NewNode), assignment, opt)
	} else {
		simRes, err = nw.Run(scheme.NewNode, assignment, opt)
	}
	if err != nil {
		return nil, fmt.Errorf("advice: scheme %s: %w", scheme.Name(), err)
	}
	out := prob.verify(g, root, simRes.ParentPorts)
	res := &Result{
		Scheme:    scheme.Name(),
		Problem:   prob.name,
		N:         g.N(),
		M:         g.M(),
		Advice:    Measure(assignment, g.N()),
		Result:    *simRes,
		Root:      -1,
		Output:    out,
		Verified:  out.OK(),
		VerifyErr: out.Err(),
	}
	if mo, ok := out.(MSTOutput); ok {
		res.Root = mo.Root
	}
	return res, nil
}

// MSTOutput is the MST problem's verdict, whichever path judged the run:
// the registered problem (internal/problem/mstp) and the fallback for
// unregistered schemes both return what VerifyOutput returns.
type MSTOutput struct {
	// Root is the node that output "root" (-1 parent port), or -1 if
	// none or several did.
	Root graph.NodeID
	// Weight is the total weight of the edges the parent ports select.
	Weight graph.Weight
	// Verified is true iff the output is exactly the unique rooted MST.
	Verified bool
	// VerifyErr explains a verification failure.
	VerifyErr error
}

// Problem implements problem.Output.
func (MSTOutput) Problem() string { return "mst" }

// OK implements problem.Output.
func (o MSTOutput) OK() bool { return o.Verified }

// Err implements problem.Output.
func (o MSTOutput) Err() error { return o.VerifyErr }

// String implements problem.Output.
func (o MSTOutput) String() string {
	if !o.Verified {
		return fmt.Sprintf("mst: not verified: %v", o.VerifyErr)
	}
	return fmt.Sprintf("mst: rooted at %d, weight %d", o.Root, o.Weight)
}

// VerifyOutput checks that parent ports encode the unique rooted MST of g
// with exactly one root, and measures the weight of the edges they
// select. It is the MST problem's verifier; the registered problem
// (internal/problem/mstp) delegates here.
func VerifyOutput(g *graph.Graph, parentPorts []int) MSTOutput {
	out := MSTOutput{Root: -1}
	for u, p := range parentPorts {
		if p >= 0 && p < g.Degree(graph.NodeID(u)) {
			out.Weight += g.Weight(g.HalfAt(graph.NodeID(u), p).Edge)
		}
	}
	for u, p := range parentPorts {
		if p != -1 {
			continue
		}
		if out.Root != -1 {
			out.VerifyErr = fmt.Errorf("advice: nodes %d and %d both claim root", out.Root, u)
			out.Root = -1
			return out
		}
		out.Root = graph.NodeID(u)
	}
	if out.Root == -1 {
		out.VerifyErr = fmt.Errorf("advice: no node claims root")
		return out
	}
	out.VerifyErr = mst.VerifyRooted(g, parentPorts, out.Root)
	out.Verified = out.VerifyErr == nil
	return out
}
