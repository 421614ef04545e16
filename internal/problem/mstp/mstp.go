// Package mstp registers minimum-spanning-tree computation — the problem
// of Fraigniaud, Korman and Lebhar (SPAA 2007) — as the first instance of
// the advice-problem platform (internal/problem): the canonical oracle is
// the Theorem 3 pipeline (core.BuildAdvice), the scheme set is the five
// advising schemes plus the pulse-driven variant, and the verifier checks
// the per-node parent ports against the unique rooted reference MST.
//
// The verifier is advice.VerifyOutput and its verdict the one MST verdict
// type, advice.MSTOutput: the harness's fallback for unregistered
// schemes and the registered problem return the same value.
//
// See DESIGN.md §2.8 for the platform contract and DESIGN.md §2.2 for
// the scheme framework.
package mstp

import (
	"fmt"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/hier"
	"mstadvice/internal/problem"
	"mstadvice/internal/schemes/localgather"
	"mstadvice/internal/schemes/noadvice"
	"mstadvice/internal/schemes/oneround"
	"mstadvice/internal/schemes/pipeline"
	"mstadvice/internal/schemes/trivial"
)

// Name is the registry key and store problem ID of the MST problem.
const Name = "mst"

func init() { problem.MustRegister(Problem{}) }

// Problem is the MST advice problem. The zero value is ready to use.
type Problem struct{}

// Name implements problem.Problem.
func (Problem) Name() string { return Name }

// Encode runs the Theorem 3 oracle. Param is the packed-advice budget
// (cap); 0 means the paper's default c+1 = 12 bits. Workers sizes the
// decomposition/encoding pool; the output is byte-identical for any
// worker count.
func (Problem) Encode(g *graph.Graph, root graph.NodeID, opt problem.EncodeOptions) ([]*bitstring.BitString, error) {
	capBits := opt.Param
	if capBits <= 0 {
		capBits = core.DefaultCap
	}
	d, err := core.BuildAdviceDetailOpt(g, root, capBits, core.OracleOptions{Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	return d.Advice, nil
}

// Scheme returns the canonical decoder of the stored advice: the
// Theorem 3 (12, O(log n)) scheme.
func (Problem) Scheme() problem.Scheme { return core.Scheme{} }

// Schemes returns the problem's advising schemes in increasing round
// order — the set the facade and the daemons offer under -problem mst.
func (Problem) Schemes() []problem.Scheme {
	return []problem.Scheme{
		trivial.Scheme{},
		oneround.Scheme{},
		core.Scheme{},
		core.Scheme{Adaptive: true},
		localgather.Scheme{},
		noadvice.Scheme{},
		pipeline.Scheme{},
	}
}

// MatchScheme implements problem.SchemeMatcher for the parameterized
// hierarchical family "mst-hier-l%d" (internal/hier): any level ≥ 1
// routes to the MST problem without being enumerated in Schemes.
func (Problem) MatchScheme(name string) (problem.Scheme, bool) {
	var l int
	if _, err := fmt.Sscanf(name, "mst-hier-l%d", &l); err != nil || l < 1 {
		return nil, false
	}
	s := hier.Scheme{Level: l}
	if s.Name() != name {
		return nil, false
	}
	return s, true
}

// VerifyOutput implements problem.Problem: outputs are parent ports
// (-1 marks the root) and must encode the unique MST of g rooted at the
// single claiming node. The designated root parameter is not consulted —
// the paper's decoders discover the root from the advice. The verdict is
// an advice.MSTOutput carrying the claimed root and the tree weight.
func (Problem) VerifyOutput(g *graph.Graph, _ graph.NodeID, outputs []int) problem.Output {
	return advice.VerifyOutput(g, outputs)
}
