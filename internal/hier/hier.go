// Package hier implements hierarchical MST advice with local
// decompression, the bits-for-rounds trade formalized by Balliu et al.
// ("Local Advice and Local Decompression", see PAPERS.md) on top of the
// paper's Borůvka machinery.
//
// The flat Theorem 3 scheme of Fraigniaud, Korman and Lebhar spends
// O(log log n) bits per node so every node can output its MST parent
// port without any extra communication beyond the scheme's fixed
// schedule. This package moves along the other axis of the trade: pick
// a level L of the Borůvka contraction tower (the fragments at the
// start of phase L+1, boruvka.Decomposition.FragOf), encode
// the expensive part of the advice — the ⌈log n⌉-bit parent identity of
// each fragment — once per level-L fragment instead of once per node,
// and let the nodes of each fragment spend measured extra rounds
// recombining the fragment's bits at run time.
//
// Advice at level L, per node u of fragment F (BFS index k, fragment
// root r_F):
//
//	[root flag: 1 bit]
//	[non-root only: u's MST parent port, ⌈log deg(u)⌉ bits]
//	[carrier bits: bit positions k, k+s, k+2s, ... of F's value,
//	 where s = min(|F|, w) and w = ⌈log n⌉; empty for k ≥ s]
//
// F's value is the global rank, among r_F's incident edges, of r_F's
// MST parent edge — or all-ones for the fragment holding the global
// root. The per-fragment total is exactly w bits however large F is,
// so the per-node cost of the fragment identity falls geometrically
// with L (Lemma 1: |F| ≥ 2^L), while every node still learns its exact
// parent port: non-roots read it directly from their hint, fragment
// roots reassemble the value by the relay-only convergecast the flat
// decoder also runs (internal/convergecast) and translate the rank back
// to a port with the same local-order machinery the flat decoder uses.
//
// The decoder (see node.go) is level-oblivious — the advice is
// self-describing — and runs unmodified on the synchronous and
// asynchronous engines: ⌈log n⌉+1 rounds on every instance,
// independent of L, the worker count, and the schedule. Scheme names
// form the parameterized family "mst-hier-l%d", routed to the MST
// problem through problem.SchemeMatcher.
//
// See DESIGN.md §2.9.
package hier

import (
	"fmt"
	"slices"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph"
	"mstadvice/internal/sim"
)

// Scheme is the hierarchical advising scheme at contraction level
// Level: advice is assigned per fragment of the tower's level-Level
// contracted graph (levels past the last contraction clamp to the
// final single fragment). Values below 1 are treated as 1.
type Scheme struct {
	Level int
}

func (s Scheme) level() int {
	if s.Level < 1 {
		return 1
	}
	return s.Level
}

// Name returns the scheme's registry name, "mst-hier-l%d".
func (s Scheme) Name() string { return fmt.Sprintf("mst-hier-l%d", s.level()) }

// Advise computes the hierarchical advice sequentially.
func (s Scheme) Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error) {
	return s.AdviseWorkers(g, root, 0)
}

// AdviseWorkers is Advise on a worker pool; the output is
// byte-identical for any worker count (fragments are assigned to
// workers in disjoint index ranges and nodes belong to one fragment).
func (s Scheme) AdviseWorkers(g *graph.Graph, root graph.NodeID, workers int) ([]*bitstring.BitString, error) {
	n := g.N()
	if n < 2 {
		return nil, nil
	}
	// The level's phase is at most level+1, so that many kept phases
	// cover it.
	d, err := boruvka.DecomposeOpt(g, root, boruvka.Options{Workers: workers, KeepPhases: s.level() + 1})
	if err != nil {
		return nil, err
	}
	adv, err := Encode(d, []int{s.level()})
	if err != nil {
		return nil, err
	}
	return adv[0], nil
}

// levelPhase is the phase whose starting fragments make up level l of
// d's tower: the partition after l contractions, clamped to the
// spanning fragment at TotalPhases+1.
func levelPhase(d *boruvka.Decomposition, l int) int {
	return min(l, d.TotalPhases) + 1
}

// Encode assigns the hierarchical advice at every level of levels from
// one Run of d: out[k] is the level-levels[k] advice, written from the
// fragments at the start of phase levels[k]+1. Levels beyond the last
// contraction clamp to the final single fragment. The Run streams only
// the phases from the smallest level's to the largest's, and d must
// keep those phases' selections (KeepPhases 0, or more phases than the
// largest level). Fragments are annotated and assigned on d's worker
// pool, in disjoint index ranges, so the advice is byte-identical for
// any worker count.
func Encode(d *boruvka.Decomposition, levels []int) ([][]*bitstring.BitString, error) {
	g := d.G
	n := g.N()
	out := make([][]*bitstring.BitString, len(levels))
	if n < 2 || len(levels) == 0 {
		return out, nil
	}
	phase := make([]int, len(levels))
	for k, l := range levels {
		if l < 1 {
			return nil, fmt.Errorf("hier: level %d out of range", l)
		}
		phase[k] = levelPhase(d, l)
	}
	// A string is a flag, a parent port of at most ⌈log n⌉ bits and at
	// most ⌈log n⌉ value bits: one arena per level holds them all.
	width := graph.CeilLog2(n)
	for k := range out {
		arena := bitstring.NewArena(n, 1+2*width)
		out[k] = make([]*bitstring.BitString, n)
		for u := range out[k] {
			out[k][u] = arena.At(u)
		}
	}
	err := d.Run(slices.Min(phase), slices.Max(phase), func(_ int, v boruvka.StreamVisit) error {
		for k, p := range phase {
			if v.Phase == p {
				if err := assignFragment(g, d, v.Root, v.BFS, width, out[k]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// assignFragment writes the advice of every node of the fragment rooted
// at root with BFS order bfs into that node's empty string in out.
func assignFragment(g *graph.Graph, d *boruvka.Decomposition, root graph.NodeID, bfs []graph.NodeID, width int, out []*bitstring.BitString) error {
	allOnes := (uint64(1) << uint(width)) - 1
	var value uint64
	if root == d.Root {
		value = allOnes
	} else {
		value = uint64(g.GlobalRankAt(root, d.ParentPort[root]))
		if value >= allOnes {
			return fmt.Errorf("hier: rank %d of fragment root %d does not fit %d bits", value, root, width)
		}
	}
	stride := len(bfs)
	if stride > width {
		stride = width
	}
	for k, u := range bfs {
		b := out[u]
		if u == root {
			b.AppendBit(true)
		} else {
			b.AppendBit(false)
			b.AppendUint(uint64(d.ParentPort[u]), bitstring.WidthFor(uint64(g.Degree(u)-1)))
		}
		for pos := k; pos < width; pos += stride {
			b.AppendBit((value>>uint(pos))&1 == 1)
		}
	}
	return nil
}

// NewNode builds the local-decompression decoder for one node. The
// decoder is level-oblivious: every Scheme{L} produces the same node.
func (s Scheme) NewNode(view *sim.NodeView) sim.Node {
	return newNode(view)
}

// EstimateBits upper-bounds the total advice bits the level-l scheme
// assigns on d's graph: one flag bit per node, a parent-port hint for
// every node (roots save theirs, uncounted here), and exactly ⌈log n⌉
// value bits per level-l fragment.
func EstimateBits(d *boruvka.Decomposition, l int) int {
	g := d.G
	n := g.N()
	total := 0
	for u := 0; u < n; u++ {
		total += 1 + bitstring.WidthFor(uint64(g.Degree(graph.NodeID(u))-1))
	}
	return total + d.NumFrags(levelPhase(d, l))*graph.CeilLog2(n)
}

// PlanLevel is the level-cut planner: it returns the smallest tower
// level whose EstimateBits fits budgetBits, or the coarsest level when
// no level fits (or when budgetBits ≤ 0 — "as few bits as possible").
// The tower's levels are 1..TotalPhases-1, the partitions with more
// than one fragment after a contraction. Coarser levels always
// estimate no larger, so the returned level is the finest affordable
// cut.
func PlanLevel(d *boruvka.Decomposition, budgetBits int) int {
	last := d.TotalPhases - 1
	if last < 1 {
		return 1
	}
	if budgetBits > 0 {
		for l := 1; l <= last; l++ {
			if EstimateBits(d, l) <= budgetBits {
				return l
			}
		}
	}
	return last
}
