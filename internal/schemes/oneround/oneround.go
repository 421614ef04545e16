// Package oneround implements the (O(log² n), 1)-advising scheme of
// Theorem 2 of Fraigniaud, Korman and Lebhar (SPAA 2007), whose advices
// have constant average size.
//
// The oracle follows the Borůvka phase decomposition. For every phase i
// and every active fragment F, the choosing node u of F stores one chunk
// of advice: the rank of the selected edge e in u's local (weight, port)
// order, followed by one bit telling whether e is up (towards the root of
// the final tree) or down. By Lemma 2 the rank is below |F| ≤ 2^i when no
// node has two incident edges of equal weight, so the chunk of phase i
// costs i+1 bits; chunks from different phases are concatenated and made
// self-delimiting by a bitmap that doubles the advice (exactly the paper's
// encoding). Since phase i has at most n/2^(i-1) choosing nodes, the total
// advice is at most Σ 2(i+1)·n/2^(i-1) = c·n bits with
// c = Σ_{i≥1} (i+1)/2^(i-2) = 12, i.e. O(1) bits per node on average,
// while a node choosing in every phase can accumulate Θ(log² n) bits.
//
// On graphs where a node has several incident edges of one weight the
// selected edge's local rank can exceed 2^i − 1 (the paper's tie-breaking
// is looser than its size analysis; see DESIGN.md §2.2). The oracle then
// widens the chunk transparently — the bitmap keeps the advice decodable —
// and the size guarantee degrades measurably instead of silently.
//
// Decoding takes exactly one round: each choosing node resolves its chunk
// ranks to ports; an up chunk names the node's own parent edge, and for a
// down chunk the node tells the far endpoint "I am your parent". Every
// non-root node learns its parent from one of these two events, and a node
// with neither event concludes it is the root.
package oneround

import (
	"fmt"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph"
	"mstadvice/internal/localorder"
	"mstadvice/internal/sim"
)

// AverageConstant is the paper's bound c = Σ_{i=1..∞} (i+1)/2^(i-2) on the
// average advice size, in bits.
const AverageConstant = 12.0

// Scheme is the Theorem 2 advising scheme. The zero value is ready to use.
type Scheme struct{}

// Name implements advice.Scheme.
func (Scheme) Name() string { return "oneround" }

// Advise implements advice.Scheme.
func (Scheme) Advise(g *graph.Graph, root graph.NodeID) ([]*bitstring.BitString, error) {
	d, err := boruvka.DecomposeOpt(g, root, boruvka.Options{})
	if err != nil {
		return nil, err
	}
	// A chooser belongs to the fragment it chooses for, so the visits of
	// one phase append to disjoint nodes' chunk lists, and the phase
	// barrier keeps every list in phase order. Phases 1..TotalPhases
	// hold every selection; a single node has no phase, and its window
	// is the spanning fragment, which selects nothing.
	chunks := make([][]*bitstring.BitString, g.N())
	err = d.Run(1, max(d.TotalPhases, 1), func(_ int, v boruvka.StreamVisit) error {
		if !v.HasSel {
			return nil
		}
		u := v.Sel.Chooser
		port := g.PortAt(v.Sel.Edge, u)
		rank := g.LocalRank(u, port)
		// Natural width is the phase index; widen if ties push the rank
		// past 2^i - 1 (cannot happen with node-distinct weights).
		w := v.Phase
		if need := bitstring.WidthFor(uint64(rank)); need > w {
			w = need
		}
		chunk := bitstring.New(w + 1)
		chunk.AppendUint(uint64(rank), w)
		chunk.AppendBit(v.Sel.Up)
		chunks[u] = append(chunks[u], chunk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*bitstring.BitString, g.N())
	for u := range out {
		out[u] = bitstring.Chunks(chunks[u])
	}
	return out, nil
}

// NewNode implements advice.Scheme.
func (Scheme) NewNode(view *sim.NodeView) sim.Node { return &node{parentPort: -1} }

// adoptMsg tells the receiving node that the sender is its parent in the
// MST. One bit suffices: the edge it arrives on identifies everything.
type adoptMsg struct{}

func (adoptMsg) SizeBits(sim.CostModel) int { return 1 }

type node struct {
	parentPort int
	haveParent bool
	done       bool
}

func (n *node) Start(ctx *sim.Ctx, view *sim.NodeView) []sim.Send {
	chunks, err := bitstring.SplitChunks(view.Advice)
	if err != nil {
		panic(fmt.Sprintf("oneround: malformed advice: %v", err))
	}
	sends := ctx.Out[:0]
	for _, c := range chunks {
		if c.Len() < 2 {
			panic("oneround: chunk too short")
		}
		rank := c.Uint(0, c.Len()-1)
		up := c.Bit(c.Len() - 1)
		port, ok := localorder.LocalRankToPort(view.PortW, int(rank))
		if !ok {
			panic(fmt.Sprintf("oneround: rank %d out of range for degree %d", rank, view.Deg))
		}
		if up {
			if n.haveParent && n.parentPort != port {
				panic("oneround: two different up chunks")
			}
			n.haveParent = true
			n.parentPort = port
		} else {
			sends = append(sends, sim.Send{Port: port, Msg: adoptMsg{}})
		}
	}
	return sends
}

func (n *node) Round(ctx *sim.Ctx, view *sim.NodeView, inbox []sim.Received) []sim.Send {
	if n.done {
		return nil
	}
	for _, rcv := range inbox {
		if _, ok := rcv.Msg.(adoptMsg); !ok {
			panic(fmt.Sprintf("oneround: unexpected message %T", rcv.Msg))
		}
		if n.haveParent && n.parentPort != rcv.Port {
			panic("oneround: conflicting parent claims")
		}
		n.haveParent = true
		n.parentPort = rcv.Port
	}
	// After round 1 every parent indication has arrived; a node with none
	// is the root (parentPort stays -1).
	n.done = true
	return nil
}

func (n *node) Output() (int, bool) { return n.parentPort, n.done }
