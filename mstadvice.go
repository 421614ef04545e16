// Package mstadvice is a Go reproduction of "Local MST Computation with
// Short Advice" by Pierre Fraigniaud, Amos Korman and Emmanuelle Lebhar
// (SPAA 2007): distributed minimum-spanning-tree computation where an
// all-seeing oracle hands every node a few bits of advice, traded against
// the number of synchronous communication rounds.
//
// The package is the paper's API: build or generate a weighted
// port-numbered graph, let an oracle encode advice, run a decoder for t
// rounds, and verify the output. It exposes:
//
//   - the network model: weighted, port-numbered graphs (Graph, Builder)
//     and the seeded generator for the experiment families (GenSeeded);
//   - the advising-scheme framework (Scheme, Run, Result) and the five
//     schemes: Trivial (⌈log n⌉ bits, 0 rounds), OneRound (constant
//     average advice, 1 round), ConstantAdvice (the paper's main result:
//     12 bits, Θ(log n) rounds), and the no-advice baselines LocalGather
//     (Θ(D) rounds, huge messages) and NoAdvice (GHS-style distributed
//     Borůvka);
//   - the Theorem 1 lower-bound machinery (BuildGn, NewLowerBoundFamily);
//   - asynchronous execution (RunOptions.Async, DESIGN.md §2.7): the
//     unmodified decoders on an event-driven network with seeded
//     latencies (UniformLatency) and adversarial delivery policies
//     (SchedulerFIFO, SchedulerLIFO, SchedulerMaxDelay), synchronized
//     by Awerbuch's α-synchronizer with its overhead accounted
//     separately in the Result;
//   - the advice-problem platform (AdviceProblem, Problems,
//     ProblemByName; DESIGN.md §2.8): the oracle/decoder/verifier triple
//     behind Run generalized beyond MST, with topology recognition with
//     advice (TopologyRecognition, TopoFlood, TopoDirect) as the second
//     registered problem;
//   - hierarchical advice (Decomposition.FragOf, HierScheme; DESIGN.md
//     §2.9): the Borůvka contraction tower, which every decomposition
//     keeps, and the level-parameterized mst-hier-l schemes trading
//     advice bits for extra decompression rounds;
//   - proof-labeling verification of a claimed tree (AssignTreeLabels,
//     VerifyTreeLabels).
//
// The serving tier (internal/store, internal/service, internal/replica)
// and the dynamic advisor (internal/dynamic) are internal: cmd/mstadviced
// serves stored oracle runs with them, and cmd/mstadvice saves runs,
// reads from replicas and runs the sensitivity and fault-scenario modes.
//
// See README.md for a tour, DESIGN.md for the architecture and
// EXPERIMENTS.md for the paper-versus-measured record.
package mstadvice

import (
	"mstadvice/internal/advice"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/hier"
	"mstadvice/internal/lowerbound"
	"mstadvice/internal/problem"
	"mstadvice/internal/problem/mstp"
	"mstadvice/internal/problem/topo"
	"mstadvice/internal/schemes/localgather"
	"mstadvice/internal/schemes/noadvice"
	"mstadvice/internal/schemes/oneround"
	"mstadvice/internal/schemes/pipeline"
	"mstadvice/internal/schemes/trivial"
	"mstadvice/internal/sim"
	"mstadvice/internal/verifylabel"
)

// Graph model re-exports.
type (
	// Graph is an immutable weighted simple graph with per-node port
	// numbering — the network model of the paper.
	Graph = graph.Graph
	// Builder assembles a Graph edge by edge.
	Builder = graph.Builder
	// NodeID indexes nodes densely (0..N-1).
	NodeID = graph.NodeID
	// Weight is an edge weight.
	Weight = graph.Weight
)

// NewBuilder creates a builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Framework re-exports.
type (
	// Scheme is an (m, t)-advising scheme: a centralized oracle plus a
	// distributed decoder.
	Scheme = advice.Scheme
	// Result is the measured outcome of one run: advice profile, rounds,
	// message statistics and verification against the reference MST.
	Result = advice.Result
	// RunOptions configure the simulator.
	RunOptions = sim.Options
)

// Run executes a scheme end to end on g with the designated root: oracle,
// synchronous decoder simulation, and verification. Self-timed schemes
// (NoAdvice, ConstantAdviceAdaptive) get the quiescence synchronizer
// enabled automatically.
func Run(s Scheme, g *Graph, root NodeID, opt RunOptions) (*Result, error) {
	return advice.Run(s, g, root, opt)
}

// Asynchronous-execution re-exports (internal/sim, internal/synch; see
// DESIGN.md §2.7). Set RunOptions.Async to replay any scheme's
// unmodified decoder on the event-driven asynchronous engine under the
// α-synchronizer; RunOptions.Latency and RunOptions.Scheduler pick the
// timing model and the adversarial delivery policy.
type (
	// AsyncScheduler is an adversarial delivery policy.
	AsyncScheduler = sim.Scheduler
	// UniformLatency draws delays uniformly from [Min, Max], seeded.
	UniformLatency = sim.UniformLatency
)

// SchedulerFIFO preserves per-link send order (the default policy).
func SchedulerFIFO() AsyncScheduler { return sim.FIFO{} }

// SchedulerLIFO is the overtaking adversary: new traffic on a busy link
// jumps the queue.
func SchedulerLIFO() AsyncScheduler { return sim.LIFO{} }

// SchedulerMaxDelay delays every message by exactly d ticks (the
// slowest-link adversary).
func SchedulerMaxDelay(d int64) AsyncScheduler { return sim.MaxDelay{Delay: d} }

// Trivial returns the (⌈log n⌉, 0)-advising scheme.
func Trivial() Scheme { return trivial.Scheme{} }

// OneRound returns Theorem 2's (O(log² n), 1)-scheme with constant
// average advice size.
func OneRound() Scheme { return oneround.Scheme{} }

// ConstantAdvice returns Theorem 3's (12, O(log n))-scheme — the paper's
// main contribution.
func ConstantAdvice() Scheme { return core.Scheme{} }

// ConstantAdviceAdaptive returns the pulse-driven variant of the Theorem 3
// decoder (same oracle and advice; self-timed phases instead of the fixed
// worst-case schedule). An extension beyond the paper; see EXPERIMENTS.md
// E4b.
func ConstantAdviceAdaptive() Scheme { return core.Scheme{Adaptive: true} }

// LocalGather returns the no-advice (0, D+1) LOCAL-model baseline.
func LocalGather() Scheme { return localgather.Scheme{} }

// NoAdvice returns the no-advice GHS-style distributed Borůvka baseline.
func NoAdvice() Scheme { return noadvice.Scheme{} }

// Pipeline returns the no-advice upcast baseline (leader election + BFS
// tree + filtered edge pipelining): Θ(n + D) rounds with CONGEST-size
// messages.
func Pipeline() Scheme { return pipeline.Scheme{} }

// Schemes returns all MST schemes in increasing round order.
func Schemes() []Scheme {
	return []Scheme{Trivial(), OneRound(), ConstantAdvice(), ConstantAdviceAdaptive(), LocalGather(), NoAdvice(), Pipeline()}
}

// SchemeByName looks a scheme up by its Name across every registered
// advice problem ("core" and the other MST schemes, "topo-flood",
// "topo-flood-r3", "topo-direct", ...).
func SchemeByName(name string) (Scheme, bool) {
	_, s, ok := problem.BySchemeName(name)
	return s, ok
}

// Advice-problem platform re-exports (internal/problem; see DESIGN.md
// §2.8). An AdviceProblem packages the oracle/decoder/verifier triple
// that Run executes: the MST problem of the paper is one registrant,
// topology recognition with advice (Fusco–Pelc style class tags) a
// second; both run unmodified on the synchronous and asynchronous
// engines and are served by the same advice service.
type (
	// AdviceProblem is one registered oracle/decoder/verifier triple.
	AdviceProblem = problem.Problem
	// ProblemEncodeOptions parameterize a problem's oracle (advice cap,
	// flood radius, oracle worker count).
	ProblemEncodeOptions = problem.EncodeOptions
)

// RegisterProblem adds an advice problem to the registry, making its
// schemes resolvable through SchemeByName and its runs attributable in
// Result.Problem. It rejects duplicate problem names and scheme names
// already claimed by another problem. The built-in problems ("mst",
// "topo") register themselves.
func RegisterProblem(p AdviceProblem) error { return problem.Register(p) }

// Problems returns every registered advice problem, sorted by name.
func Problems() []AdviceProblem { return problem.Problems() }

// ProblemByName looks a registered advice problem up by name ("mst",
// "topo").
func ProblemByName(name string) (AdviceProblem, error) { return problem.ByName(name) }

// MSTProblem returns the paper's problem — minimum-spanning-tree
// computation with advice — as a registered AdviceProblem. Its canonical
// scheme is ConstantAdvice.
func MSTProblem() AdviceProblem { return mstp.Problem{} }

// TopologyRecognition returns the second registered advice problem:
// every node must output the graph's topology class (a 30-bit
// 1-dimensional Weisfeiler–Leman fingerprint). Its canonical scheme is
// TopoFlood(0).
func TopologyRecognition() AdviceProblem { return topo.Problem{} }

// TopoFlood returns the flooding topology scheme: the oracle writes the
// class at beacon nodes (every radius+1 BFS levels) and every other node
// learns it from the nearest beacon's flood. Radius 0 tags only the
// root — fewest advice bits, eccentricity-many rounds; larger radii
// spend more advice to cut rounds, tracing the paper's (m, t) tradeoff
// on the second problem.
func TopoFlood(radius int) Scheme { return topo.Flood{Radius: radius} }

// TopoDirect returns the (30, 0) topology scheme: the oracle writes the
// class at every node and the decoder answers in zero rounds.
func TopoDirect() Scheme { return topo.Direct{} }

// TopoClass returns the topology class the recognition problem must
// output on g: the low 30 bits of its 1-WL fingerprint.
func TopoClass(g *Graph) int { return topo.Class(g) }

// TopoLowerBoundFamily is a family of pairwise non-isomorphic graphs
// indistinguishable at one target node, pinning the advice lower bound
// for topology recognition (the pigeonhole argument of Theorem 1,
// replayed for the second problem).
type TopoLowerBoundFamily = topo.Family

// NewTopoLowerBoundFamily builds k chord-position variants of the
// n-cycle for the topology lower-bound experiment.
func NewTopoLowerBoundFamily(n, k int) (*TopoLowerBoundFamily, error) { return topo.NewFamily(n, k) }

// ConstantAdviceRounds returns the exact round count of the Theorem 3
// decoder on n nodes and the paper's 9⌈log n⌉ bound.
func ConstantAdviceRounds(n int) (exact, paper int) { return core.RoundBound(n) }

// Schedule is the Theorem 3 decoder's fixed round schedule: converge —
// choose — broadcast windows per Borůvka phase, shared by oracle and
// decoder so nodes need no per-phase coordination.
type Schedule = core.Schedule

// NewSchedule builds the schedule for n nodes with the given advice cap.
func NewSchedule(n, cap int) Schedule { return core.NewSchedule(n, cap) }

// Decomposition is the deterministic Borůvka decomposition of §2.2
// (Lemmas 1–2): the MST and its phase bookkeeping, the contraction
// tower (FragOf, NumFrags) and, through Run, the per-phase fragment
// structure the oracle encodes and the decoder replays.
type Decomposition = boruvka.Decomposition

// DecompositionVisit is one fragment as Decomposition.Run streams it:
// its phase, root, level, BFS order and selection.
type DecompositionVisit = boruvka.StreamVisit

// BoruvkaOptions tune DecomposeOpt: the parallel worker count, and how
// many phases keep the selections Run needs.
type BoruvkaOptions = boruvka.Options

// DecomposeOpt runs the deterministic Borůvka decomposition of g rooted
// at root; the zero BoruvkaOptions keep every phase. Run(first, last,
// visit) streams a window of its phases, phase TotalPhases+1 being the
// spanning fragment. ParentPort and ParentEdge stay nil until the first
// Decomposition.Run roots the tree.
func DecomposeOpt(g *Graph, root NodeID, opt BoruvkaOptions) (*Decomposition, error) {
	return boruvka.DecomposeOpt(g, root, opt)
}

// Hierarchical-advice re-exports (internal/hier; see DESIGN.md §2.9).
// Level ℓ of the contraction tower is the partition at the start of
// phase ℓ+1, Decomposition.FragOf(ℓ+1); the mst-hier-l schemes spend
// fewer advice bits at a coarser level in exchange for a fixed number
// of extra decompression rounds.

// HierScheme returns the hierarchical advising scheme "mst-hier-l<level>"
// for the given tower level (values below 1 clamp to 1, levels past the
// last contraction clamp to the coarsest): shorter advice built from the
// contraction tower, decoded by an unmodified local scheme in
// ⌈log n⌉ + 1 rounds.
func HierScheme(level int) Scheme { return hier.Scheme{Level: level} }

// Generator re-exports: one seeded generator for every family.

// WeightMode selects distinct, random or unit edge weights.
type WeightMode = gen.WeightMode

// Weight modes.
const (
	WeightsDistinct = gen.WeightsDistinct
	WeightsRandom   = gen.WeightsRandom
	WeightsUnit     = gen.WeightsUnit
)

// GenSeededOptions configure the seeded parallel generators.
type GenSeededOptions = gen.SeededOptions

// GenSeeded builds a graph of the named family ("random", "grid",
// "expander", ...; cmd/mstadvice -list prints them all) with
// counter-mode seeded randomness: the result is a pure function of
// (name, n, seed) — bit-identical for any worker count — and generation
// runs in parallel (DESIGN.md §2.12).
func GenSeeded(name string, n int, seed uint64, opt GenSeededOptions) (*Graph, error) {
	return gen.BuildSeeded(name, n, seed, opt)
}

// Lower-bound re-exports (Theorem 1).
type (
	// Gn is the paper's Figure 1 graph.
	Gn = lowerbound.Gn
	// LowerBoundFamily is the indistinguishable instance family at one
	// spine node of G_n.
	LowerBoundFamily = lowerbound.Family
)

// BuildGn constructs the lower-bound graph G_n on 2n nodes.
func BuildGn(n int) (*Gn, error) { return lowerbound.BuildGn(n, 0) }

// NewLowerBoundFamily builds the k = n-i instance family at spine node
// u_i of G_n.
func NewLowerBoundFamily(n, i int) (*LowerBoundFamily, error) { return lowerbound.NewFamily(n, i) }

// TreeLabel is a proof-labeling certificate (root identifier, depth) for
// one node of a claimed rooted spanning tree.
type TreeLabel = verifylabel.Label

// AssignTreeLabels computes the certificates for a claimed parent-port
// output (validating that it is a spanning tree).
func AssignTreeLabels(g *Graph, parentPorts []int) ([]TreeLabel, error) {
	return verifylabel.Assign(g, parentPorts)
}

// VerifyTreeLabels runs the one-round distributed verifier: every node
// exchanges labels with its neighbours once and checks local consistency.
// It returns the global verdict and the per-node ones.
func VerifyTreeLabels(g *Graph, parentPorts []int, labels []TreeLabel) (bool, []bool, error) {
	return verifylabel.Check(g, parentPorts, labels)
}
