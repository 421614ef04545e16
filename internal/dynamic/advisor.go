package dynamic

import (
	"context"
	"fmt"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
)

// Advisor maintains the Theorem 3 advice of a live graph across batched
// updates. It owns the graph it was given: callers mutate the graph only
// through Update, which keeps graph, sensitivity analysis and advice
// consistent.
//
// Updates take one of two paths:
//
//   - fast path — every change is a weight update on a non-tree edge
//     whose new key stays above its cycle's tree-path maximum. Then the
//     MST, the Borůvka decomposition, every fragment BFS order and hence
//     every packed advice bit are provably unchanged (the minimum
//     outgoing edge of any fragment is a tree edge, and tree keys are
//     untouched); the only advice that can move is the final-stage
//     string of a fragment whose root is an endpoint of an updated edge,
//     because that string is the global rank of the root's parent edge
//     among its incident edges. The advisor re-encodes exactly those
//     nodes — O(deg(root) + log n) per update — and the result is
//     byte-identical to a full recompute.
//   - full path — anything else (tree-edge weight changes, updates
//     crossing their tolerance, deletions) re-runs the oracle and the
//     sensitivity analysis on the patched graph.
type Advisor struct {
	g      *graph.Graph
	root   graph.NodeID
	cap    int
	detail *core.AdviceDetail
	sens   *Sensitivity
	stats  Stats
}

// Stats counts the advisor's work.
type Stats struct {
	Batches        int // batches applied
	FastPath       int // batches absorbed incrementally
	FullRecomputes int // batches that re-ran the full oracle
	NodesReencoded int // advice strings rewritten on fast paths
}

// UpdateResult describes how one batch was absorbed.
type UpdateResult struct {
	// Incremental is true when the fast path applied.
	Incremental bool
	// Changed lists the nodes whose advice strings changed (fast path
	// only; a full recompute reports nil and rewrites everything).
	Changed []graph.NodeID
}

// NewAdvisor analyzes g and builds its advice. The advisor takes
// ownership of g.
func NewAdvisor(g *graph.Graph, root graph.NodeID, cap int) (*Advisor, error) {
	if cap <= 0 {
		cap = core.DefaultCap
	}
	a := &Advisor{g: g, root: root, cap: cap}
	if err := a.recompute(); err != nil {
		return nil, err
	}
	return a, nil
}

// Graph returns the live graph. Mutate it only through Update.
func (a *Advisor) Graph() *graph.Graph { return a.g }

// Root returns the designated MST root.
func (a *Advisor) Root() graph.NodeID { return a.root }

// Advice returns the current per-node advice, always byte-identical to
// core.BuildAdvice on the current graph.
func (a *Advisor) Advice() []*bitstring.BitString { return a.detail.Advice }

// Stats returns the work counters.
func (a *Advisor) Stats() Stats { return a.stats }

// Sensitivity returns the current analysis. After fast-path updates the
// tolerance of *tree* edges may be stale (a perturbed non-tree edge can
// have become a better replacement); MST membership and non-tree
// tolerances remain exact. A full recompute refreshes everything.
func (a *Advisor) Sensitivity() *Sensitivity { return a.sens }

func (a *Advisor) recompute() error {
	detail, err := core.BuildAdviceDetailOpt(a.g, a.root, a.cap, core.OracleOptions{})
	if err != nil {
		return err
	}
	sens, err := Analyze(a.g)
	if err != nil {
		return err
	}
	a.detail, a.sens = detail, sens
	return nil
}

// Update applies the batch to the graph and brings the advice up to
// date. A failed batch (out-of-range edge, disconnecting deletion)
// leaves graph and advice untouched.
func (a *Advisor) Update(b graph.Batch) (*UpdateResult, error) {
	return a.UpdateCtx(context.Background(), b)
}

// UpdateCtx is Update with cancellation. The context is checked before
// the batch touches the graph and again before a full oracle recompute —
// the only expensive stage — so a server draining its update queue on
// shutdown stops in bounded time. A cancellation before the batch is
// applied leaves graph and advice untouched; after the batch is applied
// the recompute must run to completion to keep them consistent, so the
// second check happens before ApplyBatch commits anything, by
// classifying the batch first.
func (a *Advisor) UpdateCtx(ctx context.Context, b graph.Batch) (*UpdateResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dynamic: update canceled: %w", err)
	}
	fast := len(b.Deletions) == 0 && a.g.N() > 1
	if fast {
		for _, wu := range b.Weights {
			if int(wu.Edge) < 0 || int(wu.Edge) >= a.g.M() {
				fast = false // let ApplyBatch produce the error
				break
			}
			if a.sens.InTree[wu.Edge] || a.sens.WouldChange(wu.Edge, wu.W) {
				fast = false
				break
			}
		}
	}
	if !fast {
		// The batch needs a full recompute; bail out while the graph is
		// still untouched if the caller has already given up.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dynamic: update canceled before recompute: %w", err)
		}
	}
	if err := a.g.ApplyBatch(b); err != nil {
		return nil, err
	}
	a.stats.Batches++
	if !fast {
		if err := a.recompute(); err != nil {
			return nil, fmt.Errorf("dynamic: recompute after update: %w", err)
		}
		a.stats.FullRecomputes++
		return &UpdateResult{Incremental: false}, nil
	}
	changed, err := a.patchFinals(b)
	if err != nil {
		return nil, err
	}
	a.stats.FastPath++
	a.stats.NodesReencoded += len(changed)
	return &UpdateResult{Incremental: true, Changed: changed}, nil
}

// patchFinals re-encodes the final-stage strings of the fragments whose
// root is incident to an updated edge. Everything else is provably
// unchanged on the fast path.
func (a *Advisor) patchFinals(b graph.Batch) ([]graph.NodeID, error) {
	touched := make(map[graph.NodeID]bool, 2*len(b.Weights))
	for _, wu := range b.Weights {
		rec := a.g.Edge(wu.Edge)
		touched[rec.U] = true
		touched[rec.V] = true
	}
	var changed []graph.NodeID
	width := a.detail.Width
	for fi := range a.detail.Frags {
		f := &a.detail.Frags[fi]
		if f.ParentPort < 0 || !touched[f.Root] {
			continue // global-root fragment (all-ones marker) or unaffected
		}
		value := uint64(a.g.GlobalRankAt(f.Root, f.ParentPort))
		if value >= 1<<uint(width)-1 {
			return nil, fmt.Errorf("dynamic: parent rank %d collides with the root marker (internal error)", value)
		}
		changed = a.detail.ReencodeFinal(fi, value, changed)
	}
	return changed, nil
}
