// Package problem defines the problem-agnostic advising platform: the
// oracle/decoder/verifier triple that Fraigniaud, Korman and Lebhar's MST
// construction (SPAA 2007) instantiates, abstracted so that other
// advice-computation problems — topology recognition (Fusco–Pelc, see
// PAPERS.md), local decompression — run on the same substrate: the graph
// families, the bitstring/advice layer, the synchronous and asynchronous
// simulation engines, the store codec and the serving tier.
//
// A Problem owns three things:
//
//   - Encode, the canonical centralized oracle: it inspects the whole
//     instance and assigns every node a bit string;
//   - Scheme (and Schemes), the advising schemes whose distributed
//     decoders spend those bits on the unmodified sim engines — a node's
//     integer Output is interpreted by the problem, not by the engine;
//   - VerifyOutput, the judge: it checks the raw per-node outputs
//     against the reference solution and wraps them in a typed,
//     problem-specific Output.
//
// Problems self-register (Register, usually from an init function) into
// a registry mirroring the graph-family registry of internal/graph/gen,
// so the store, the serving layer and the daemons can key every snapshot
// and request by problem name.
//
// See DESIGN.md §2.8 for the platform contract and how a third problem
// is added.
package problem

import (
	"fmt"
	"sort"
	"sync"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/sim"
)

// Scheme is an (m, t)-advising scheme: a centralized oracle plus a
// distributed decoder. It is problem-neutral — the meaning of a decoder
// node's integer output is fixed by the Problem the scheme belongs to
// (MST: parent port or -1 for the root; topology recognition: the class
// tag).
type Scheme interface {
	// Name identifies the scheme in reports and in the registry.
	Name() string
	// Advise computes the per-node advice for the instance (g, root).
	// Implementations may return nil for "no advice".
	Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error)
	// NewNode builds the decoder instance for one node from its local view.
	NewNode(view *sim.NodeView) sim.Node
}

// PulseNeeder is implemented by schemes whose decoders are self-timed
// and require the simulator's quiescence synchronizer; the run harness
// enables it for them automatically.
type PulseNeeder interface {
	NeedsPulses() bool
}

// WorkerAdviser is implemented by schemes whose oracles can run on a
// worker pool with byte-identical output; the run harness forwards
// sim.Options.Workers to them so one knob sizes both halves of the
// pipeline.
type WorkerAdviser interface {
	AdviseWorkers(g *graph.Graph, root graph.NodeID, workers int) ([]*bitstring.BitString, error)
}

// Output is the typed, problem-specific interpretation of a run's raw
// per-node outputs: the verification verdict plus whatever measurement
// the problem defines (MST weight, recognized class, ...).
type Output interface {
	// Problem names the problem that produced this output.
	Problem() string
	// OK reports whether the outputs verify against the reference.
	OK() bool
	// Err explains a failed verification; nil when OK.
	Err() error
	// String is a short human-readable measurement line.
	String() string
}

// EncodeOptions tune a problem's canonical oracle.
type EncodeOptions struct {
	// Param is the problem's scalar parameter, with 0 meaning the
	// problem's default: the packed-advice budget (cap) for the MST
	// problem, the beacon radius for topology recognition. It is the
	// value persisted in the store snapshot's per-problem payload.
	Param int
	// Workers sizes the oracle's worker pool where the problem supports
	// one; 0 means sequential.
	Workers int
}

// Problem is one advice-computation problem: the oracle/decoder/verifier
// triple plus its registry identity.
type Problem interface {
	// Name is the registry key and the store snapshot's problem ID.
	Name() string
	// Encode runs the problem's canonical oracle on (g, root).
	Encode(g *graph.Graph, root graph.NodeID, opt EncodeOptions) ([]*bitstring.BitString, error)
	// Scheme returns the canonical advising scheme — the one whose
	// decoder consumes Encode's advice (the serving layer replays it
	// against stored snapshots).
	Scheme() Scheme
	// Schemes returns every advising scheme of the problem, canonical
	// first among equals; scheme names must be unique across problems.
	Schemes() []Scheme
	// VerifyOutput interprets and checks the raw engine outputs.
	VerifyOutput(g *graph.Graph, root graph.NodeID, outputs []int) Output
}

// SchemeMatcher is optionally implemented by problems whose scheme set is
// a parameterized family (topology recognition's Flood{Radius: r}
// variants, for example): BySchemeName consults it after exact-name
// resolution over Schemes() fails, so every member of the family routes
// to its problem without being enumerated in the registry.
type SchemeMatcher interface {
	// MatchScheme reconstructs the named scheme if the problem owns it.
	MatchScheme(name string) (Scheme, bool)
}

// registry holds the registered problems, keyed by name. Registration
// happens in init functions (sequential), but tests may register
// late, so reads take the lock too.
var registry struct {
	sync.RWMutex
	byName map[string]Problem
}

// Register adds a problem to the registry. It fails on an empty or
// duplicate name and on a scheme name already claimed by another
// registered problem (scheme names route runs to their problem, so they
// must be unambiguous).
func Register(p Problem) error {
	if p == nil || p.Name() == "" {
		return fmt.Errorf("problem: register of nil or unnamed problem")
	}
	registry.Lock()
	defer registry.Unlock()
	if registry.byName == nil {
		registry.byName = make(map[string]Problem)
	}
	if _, dup := registry.byName[p.Name()]; dup {
		return fmt.Errorf("problem: %q already registered", p.Name())
	}
	for _, s := range p.Schemes() {
		for otherName, other := range registry.byName {
			for _, os := range other.Schemes() {
				if os.Name() == s.Name() {
					return fmt.Errorf("problem: scheme %q of %q already claimed by problem %q", s.Name(), p.Name(), otherName)
				}
			}
		}
	}
	registry.byName[p.Name()] = p
	return nil
}

// MustRegister is Register panicking on error, for init-time use.
func MustRegister(p Problem) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// ByName looks a registered problem up.
func ByName(name string) (Problem, error) {
	registry.RLock()
	defer registry.RUnlock()
	p, ok := registry.byName[name]
	if !ok {
		return nil, fmt.Errorf("problem: unknown problem %q (have %v)", name, namesLocked())
	}
	return p, nil
}

// BySchemeName resolves the problem owning the named scheme, and the
// scheme itself. Scheme names are unique across problems (Register
// enforces it).
func BySchemeName(name string) (Problem, Scheme, bool) {
	registry.RLock()
	defer registry.RUnlock()
	for _, p := range registry.byName {
		for _, s := range p.Schemes() {
			if s.Name() == name {
				return p, s, true
			}
		}
	}
	for _, p := range registry.byName {
		if m, ok := p.(SchemeMatcher); ok {
			if s, ok := m.MatchScheme(name); ok {
				return p, s, true
			}
		}
	}
	return nil, nil, false
}

// Problems returns the registered problems sorted by name.
func Problems() []Problem {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Problem, 0, len(registry.byName))
	for _, p := range registry.byName {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

func namesLocked() []string {
	names := make([]string, 0, len(registry.byName))
	for name := range registry.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
