// Package topo implements topology recognition with advice — the problem
// of Fusco, Pelc and Petreschi ("Topology recognition with advice", see
// PAPERS.md) — as the second instance of the advice-problem platform:
// every node must output the isomorphism class of the network's topology,
// and an all-seeing oracle trades advice bits against communication
// rounds, exactly the shape of Fraigniaud–Korman–Lebhar's MST
// construction.
//
// The class tag is a ClassBits-bit isomorphism-invariant fingerprint of
// the unweighted, unlabeled topology: colour refinement (1-WL) run to a
// stable partition and hashed — deterministic, label-independent, and
// recomputable by the verifier from the graph alone. Two schemes span
// the bits-vs-rounds tradeoff:
//
//   - Direct, the (ClassBits, 0) endpoint: the oracle writes the full
//     tag at every node; the decoder outputs it with no communication —
//     the analogue of the MST problem's trivial scheme;
//   - Flood{Radius: r}, the short-advice family: the oracle plants the
//     tag at beacon nodes chosen so that every node is within distance
//     r of one (r ≤ 0: only the designated root is a beacon), marks
//     everyone else with a single 0 bit, and the decoder floods the tag
//     — max(r, eccentricity) rounds against ~1 + 31/n average bits at
//     the root-only end, sweeping to Direct as r → 0.
//
// The decoders run on the unmodified synchronous and asynchronous
// engines: a sim node's integer output is interpreted by the problem,
// so the engines never learn whether they are computing parent ports or
// class tags. The pigeonhole lower bound for zero-round recognition
// lives in this package too (Family, mirroring internal/lowerbound).
//
// See DESIGN.md §2.8 for the platform contract and DESIGN.md §3 (E12)
// for the measured profile.
package topo

import (
	"fmt"
	"slices"
	"sort"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/problem"
	"mstadvice/internal/sim"
)

// Name is the registry key and store problem ID of topology recognition.
const Name = "topo"

// ClassBits is the width of the class tag. 30 bits keep the tag a small
// positive int on every platform (the engine's node output is an int,
// with -1 reserved by convention for "root" in other problems).
const ClassBits = 30

func init() { problem.MustRegister(Problem{}) }

// fnv64 constants (FNV-1a), the same hash family the serving layer's
// shard router uses.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// Fingerprint returns the 64-bit isomorphism-invariant fingerprint of
// g's topology: node IDs, port numbers and edge weights are all
// excluded, so any two isomorphic port-numbered networks hash equal.
// Colour refinement (1-WL) runs until the colour partition stops
// refining; the final hash covers n, m, the sorted multiset of stable
// colours and the sorted multiset of per-edge colour pairs. Like every
// 1-WL invariant it is complete on trees and almost all graphs but not
// on 1-WL-equivalent pairs — the verifier only ever compares a run's
// outputs against the fingerprint of the same instance, so collisions
// cost experiment resolution, never soundness.
func Fingerprint(g *graph.Graph) uint64 {
	n := g.N()
	cur := make([]uint64, n)
	for u := range cur {
		cur[u] = uint64(g.Degree(graph.NodeID(u)))
	}
	distinct := countDistinct(cur)
	next := make([]uint64, n)
	var neigh []uint64
	for iter := 0; iter < n; iter++ {
		for u := 0; u < n; u++ {
			neigh = neigh[:0]
			for _, e := range g.Ports(graph.NodeID(u)) {
				neigh = append(neigh, cur[g.Other(e, graph.NodeID(u))])
			}
			slices.Sort(neigh)
			h := mix(fnvOffset, cur[u])
			for _, c := range neigh {
				h = mix(h, c)
			}
			next[u] = h
		}
		// Dense-rank the new colours so the values stay canonical across
		// iterations (the partition, not the hash values, is the state).
		rank(next)
		copy(cur, next)
		nd := countDistinct(cur)
		if nd == distinct {
			break // stable partition: further rounds cannot refine it
		}
		distinct = nd
	}
	h := mix(mix(fnvOffset, uint64(n)), uint64(g.M()))
	sorted := append([]uint64(nil), cur...)
	slices.Sort(sorted)
	for _, c := range sorted {
		h = mix(h, c)
	}
	pairs := make([][2]uint64, 0, g.M())
	for _, e := range g.Edges() {
		a, b := cur[e.U], cur[e.V]
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, [2]uint64{a, b})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		h = mix(mix(h, p[0]), p[1])
	}
	return h
}

// rank replaces each value by its dense rank among the distinct values.
func rank(vals []uint64) {
	sorted := append([]uint64(nil), vals...)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	for i, v := range vals {
		j, _ := slices.BinarySearch(sorted, v)
		vals[i] = uint64(j)
	}
}

func countDistinct(vals []uint64) int {
	sorted := append([]uint64(nil), vals...)
	slices.Sort(sorted)
	return len(slices.Compact(sorted))
}

// Class is the ClassBits-bit tag every node must output: the truncated
// Fingerprint.
func Class(g *graph.Graph) int {
	return int(Fingerprint(g) & (1<<ClassBits - 1))
}

// Shape is the coarse structural family tag reported in the problem's
// typed Output — a human-readable companion to the opaque class tag.
// The classes are made mutually exclusive by a fixed priority (complete
// before ring before path before star before tree), so the tag is a
// deterministic function of the topology.
func Shape(g *graph.Graph) string {
	n, m := g.N(), g.M()
	if n <= 1 {
		return "point"
	}
	maxDeg, allDeg2 := 0, true
	for u := 0; u < n; u++ {
		d := g.Degree(graph.NodeID(u))
		if d > maxDeg {
			maxDeg = d
		}
		if d != 2 {
			allDeg2 = false
		}
	}
	isTree := m == n-1
	switch {
	case n >= 3 && m == n*(n-1)/2:
		return "complete"
	case n >= 3 && allDeg2:
		return "ring"
	case isTree && maxDeg <= 2:
		return "path"
	case isTree && maxDeg == n-1:
		return "star"
	case isTree:
		return "tree"
	default:
		return "general"
	}
}

// classMsg carries the class tag during the flood.
type classMsg struct{ class int }

// SizeBits implements sim.Message: the tag is ClassBits wide regardless
// of the cost model (it is advice, not an ID/port/weight field).
func (classMsg) SizeBits(sim.CostModel) int { return ClassBits }

// Direct is the (ClassBits, 0)-advising scheme: every node receives the
// full class tag and outputs it with no communication. The zero value is
// ready to use.
type Direct struct{}

// Name implements problem.Scheme.
func (Direct) Name() string { return "topo-direct" }

// Advise writes the class tag at every node.
func (Direct) Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error) {
	class := uint64(Class(g))
	out := make([]*bitstring.BitString, g.N())
	for u := range out {
		s := bitstring.New(ClassBits)
		s.AppendUint(class, ClassBits)
		out[u] = s
	}
	return out, nil
}

// NewNode implements problem.Scheme.
func (Direct) NewNode(view *sim.NodeView) sim.Node { return &directNode{} }

type directNode struct {
	class int
	done  bool
}

func (n *directNode) Start(ctx *sim.Ctx, view *sim.NodeView) []sim.Send {
	if view.Advice.Len() != ClassBits {
		panic(fmt.Sprintf("topo: advice has %d bits, want %d", view.Advice.Len(), ClassBits))
	}
	n.class = int(view.Advice.Uint(0, ClassBits))
	n.done = true
	return nil
}

func (n *directNode) Round(ctx *sim.Ctx, view *sim.NodeView, inbox []sim.Received) []sim.Send {
	return nil
}

func (n *directNode) Output() (int, bool) { return n.class, n.done }

// Flood is the short-advice scheme family: the oracle plants the class
// tag at beacons — BFS-from-root depths divisible by Radius+1, so every
// node sits within Radius tree hops of one — and everyone else gets a
// single 0 bit; the decoder floods the first tag it hears. Radius <= 0
// means the designated root is the only beacon: average advice
// 1 + ClassBits/n bits against eccentricity(root) rounds, the
// short-advice endpoint of the tradeoff. The zero value is the
// canonical scheme of the topo problem.
type Flood struct {
	// Radius bounds every node's distance to a beacon; <= 0 plants the
	// tag only at the root.
	Radius int
}

// Name implements problem.Scheme; radius variants are distinct schemes
// (distinct benchmark rows), the zero value is plain "topo-flood".
func (s Flood) Name() string {
	if s.Radius <= 0 {
		return "topo-flood"
	}
	return fmt.Sprintf("topo-flood-r%d", s.Radius)
}

// Advise marks beacons with [1, class tag] and every other node with a
// single 0 bit.
func (s Flood) Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("topo: empty graph")
	}
	class := uint64(Class(g))
	dist, _ := g.BFS(root)
	out := make([]*bitstring.BitString, g.N())
	for u := range out {
		if dist[u] < 0 {
			return nil, fmt.Errorf("topo: node %d unreachable from root %d", u, root)
		}
		beacon := u == int(root) || (s.Radius > 0 && dist[u]%(s.Radius+1) == 0)
		if beacon {
			b := bitstring.New(1 + ClassBits)
			b.AppendBit(true)
			b.AppendUint(class, ClassBits)
			out[u] = b
		} else {
			b := bitstring.New(1)
			b.AppendBit(false)
			out[u] = b
		}
	}
	return out, nil
}

// NewNode implements problem.Scheme. The decoder is radius-agnostic —
// beacons are marked in the advice — so one decoder replays any stored
// Flood assignment (the serving layer relies on this).
func (Flood) NewNode(view *sim.NodeView) sim.Node { return &floodNode{class: -1} }

type floodNode struct {
	class int
	done  bool
}

func (n *floodNode) Start(ctx *sim.Ctx, view *sim.NodeView) []sim.Send {
	if view.Advice.Len() == 0 {
		panic("topo: flood decoder needs at least the beacon marker bit")
	}
	if !view.Advice.Bit(0) {
		return nil // wait for the flood
	}
	if view.Advice.Len() != 1+ClassBits {
		panic(fmt.Sprintf("topo: beacon advice has %d bits, want %d", view.Advice.Len(), 1+ClassBits))
	}
	n.class = int(view.Advice.Uint(1, ClassBits))
	n.done = true
	return n.broadcast(ctx, view, nil)
}

func (n *floodNode) Round(ctx *sim.Ctx, view *sim.NodeView, inbox []sim.Received) []sim.Send {
	if n.done {
		return nil
	}
	from := make(map[int]bool, len(inbox))
	for _, rcv := range inbox {
		if m, ok := rcv.Msg.(classMsg); ok {
			if n.class == -1 {
				n.class = m.class
			}
			from[rcv.Port] = true
		}
	}
	if n.class == -1 {
		return nil
	}
	n.done = true
	return n.broadcast(ctx, view, from)
}

// broadcast forwards the tag on every port except those it just arrived
// on (their far ends already hold it), in ctx.Out.
func (n *floodNode) broadcast(ctx *sim.Ctx, view *sim.NodeView, skip map[int]bool) []sim.Send {
	sends := ctx.Out[:0]
	for p := 0; p < view.Deg; p++ {
		if !skip[p] {
			sends = append(sends, sim.Send{Port: p, Msg: classMsg{class: n.class}})
		}
	}
	return sends
}

func (n *floodNode) Output() (int, bool) { return n.class, n.done }

// Output is the topology-recognition problem's typed result.
type Output struct {
	// Class is the reference class tag of the instance (what every node
	// must output).
	Class int
	// Shape is the coarse structural family tag of the instance.
	Shape string
	// Verified is true iff every node output the reference class.
	Verified bool
	// VerifyErr explains a verification failure.
	VerifyErr error
}

// Problem implements problem.Output.
func (Output) Problem() string { return Name }

// OK implements problem.Output.
func (o Output) OK() bool { return o.Verified }

// Err implements problem.Output.
func (o Output) Err() error { return o.VerifyErr }

// String implements problem.Output.
func (o Output) String() string {
	if !o.Verified {
		return fmt.Sprintf("topo: not verified: %v", o.VerifyErr)
	}
	return fmt.Sprintf("topo: class %#08x (%s)", o.Class, o.Shape)
}

// Problem is the topology-recognition advice problem. The zero value is
// ready to use.
type Problem struct{}

// Name implements problem.Problem.
func (Problem) Name() string { return Name }

// Encode implements problem.Problem: the canonical oracle is Flood with
// Param as the beacon radius (0 = root-only). The oracle is a single
// BFS plus the fingerprint; Workers is accepted for interface symmetry
// and ignored.
func (Problem) Encode(g *graph.Graph, root graph.NodeID, opt problem.EncodeOptions) ([]*bitstring.BitString, error) {
	return Flood{Radius: opt.Param}.Advise(g, root)
}

// Scheme implements problem.Problem: the canonical decoder replays any
// stored Flood assignment regardless of the radius it was encoded with.
func (Problem) Scheme() problem.Scheme { return Flood{} }

// Schemes implements problem.Problem.
func (Problem) Schemes() []problem.Scheme {
	return []problem.Scheme{Flood{}, Direct{}}
}

// MatchScheme implements problem.SchemeMatcher: the Flood radius variants
// ("topo-flood-r3", ...) form a parameterized family, and every member
// routes back to the topo problem without being enumerated in Schemes().
func (Problem) MatchScheme(name string) (problem.Scheme, bool) {
	var r int
	if _, err := fmt.Sscanf(name, "topo-flood-r%d", &r); err == nil && r > 0 && name == (Flood{Radius: r}).Name() {
		return Flood{Radius: r}, true
	}
	return nil, false
}

// VerifyOutput implements problem.Problem: every node must output the
// instance's class tag. The designated root is not consulted — the
// reference is a function of the topology alone.
func (Problem) VerifyOutput(g *graph.Graph, _ graph.NodeID, outputs []int) problem.Output {
	out := Output{Class: Class(g), Shape: Shape(g)}
	if len(outputs) != g.N() {
		out.VerifyErr = fmt.Errorf("topo: %d outputs for %d nodes", len(outputs), g.N())
		return out
	}
	for u, c := range outputs {
		if c != out.Class {
			out.VerifyErr = fmt.Errorf("topo: node %d output class %#x, want %#x", u, c, out.Class)
			return out
		}
	}
	out.Verified = true
	return out
}
