package core

import (
	"fmt"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph"
)

// Oracle state for building the Theorem 3 advice. The advice of node u is
// laid out as
//
//	advice(u) = [ final bit ] ‖ [ packed phase bits, at most Cap ]
//
// so the maximum advice size is m = Cap + 1 = 12 bits. The final bit comes
// first because its position must be locally computable: the packed region
// is everything after bit 0.
//
// For every phase i ≤ P and every active fragment F that selected an edge,
// the fragment string A(F) = b_up ‖ b_level ‖ bin(j) (i+2 bits, where j is
// the 0-based BFS index of the choosing node) is streamed greedily into
// the fragment's nodes in BFS order, filling each node up to Cap bits
// before moving to the next — exactly the paper's assignment loop, whose
// Claim 1 guarantees the capacity Σ(Cap − used) ≥ i+2. For the final
// stage, fragment F's string is the Width-bit rank of the root's parent
// edge in its global order (all-ones marks the global root), one bit per
// BFS node.
//
// The encoder is built for n = 10⁶-scale graphs: every node's string
// lives in one pre-sized arena of (Cap+1)-bit strings and is written in
// place — bit 0 is reserved when the string is made and set by the final
// stage, the packing appends after it — so no per-node string grows and
// none is copied. The encoder reads only the ⌈log log n⌉ + 1 phases
// it packs (BuildAdviceDetailOpt's decomposition keeps no more), and
// both the per-phase packing and the final-stage encoding run in
// parallel over fragment ranges — every fragment writes a disjoint node
// set, so the advice is byte-identical for any worker count.
type adviceBuilder struct {
	g      *graph.Graph
	d      *boruvka.Decomposition
	sched  Schedule
	advice []*bitstring.BitString
	frags  []FinalFragment
}

// FinalFragment is the structural record of one fragment remaining after
// the last packed phase, as the incremental oracle (internal/dynamic)
// needs it: its final-stage advice value can be recomputed from the
// root's current incident weights alone, without re-running the Borůvka
// decomposition.
type FinalFragment struct {
	// Root is the fragment node closest to the global root.
	Root graph.NodeID
	// ParentPort is the port at Root of its tree parent edge, -1 for the
	// fragment holding the global root.
	ParentPort int
	// Carriers are the first Width nodes of the fragment's BFS order —
	// the nodes whose final advice bit spells the fragment's string.
	Carriers []graph.NodeID
	// Value is the encoded final string: the global rank of the root's
	// parent edge among its incident edges, or all-ones for the global
	// root fragment.
	Value uint64
}

// AdviceDetail is the full output of the Theorem 3 oracle: the advice
// strings plus the final-stage layout an incremental recomputation needs
// to re-encode only the nodes whose final string changed.
type AdviceDetail struct {
	// Advice is the per-node advice, [final bit] ‖ [packed phase bits].
	// The packed region depends only on the decomposition structure,
	// never on the concrete weights, so weight churn that preserves the
	// decomposition keeps it bit-identical.
	Advice []*bitstring.BitString
	// Frags lists the fragments remaining after the last packed phase.
	Frags []FinalFragment
	// Width is the final string width, ⌈log n⌉.
	Width int
}

// ReencodeFinal sets final fragment fi's value and rewrites the final
// bit of each carrier it flips, appending those carriers to changed.
// A rewritten carrier gets a fresh copy of its string: published epochs
// share advice strings, so a string handed out is never modified.
func (d *AdviceDetail) ReencodeFinal(fi int, value uint64, changed []graph.NodeID) []graph.NodeID {
	f := &d.Frags[fi]
	f.Value = value
	for k, u := range f.Carriers {
		bit := value>>uint(k)&1 == 1
		if d.Advice[u].Bit(0) == bit {
			continue
		}
		s := d.Advice[u].Clone()
		s.SetBit(0, bit)
		d.Advice[u] = s
		changed = append(changed, u)
	}
	return changed
}

// OracleOptions tune the oracle run without changing its output.
type OracleOptions struct {
	// Workers is the pool size for the decomposition and the advice
	// encoding; 0 means GOMAXPROCS. The advice is byte-identical for any
	// value.
	Workers int
}

// BuildAdvice computes the Theorem 3 advice for g rooted at root. cap is
// the per-node packed budget (the paper's c = 11); smaller values are
// allowed for the ablation experiment and fail with a descriptive error
// when the packing no longer fits.
func BuildAdvice(g *graph.Graph, root graph.NodeID, cap int) ([]*bitstring.BitString, error) {
	d, err := BuildAdviceDetailOpt(g, root, cap, OracleOptions{})
	if err != nil {
		return nil, err
	}
	return d.Advice, nil
}

// BuildAdviceDetailOpt is BuildAdvice plus the layout detail used by
// incremental recomputation, with an explicit worker count: a
// decomposition that keeps only the P+1 phases the encoder reads, then
// Encode. The result is byte-identical for any OracleOptions.Workers.
func BuildAdviceDetailOpt(g *graph.Graph, root graph.NodeID, cap int, opt OracleOptions) (*AdviceDetail, error) {
	d, err := boruvka.DecomposeOpt(g, root, boruvka.Options{
		Workers:    opt.Workers,
		KeepPhases: NewSchedule(g.N(), cap).P + 1,
	})
	if err != nil {
		return nil, err
	}
	return Encode(d, cap)
}

// Encode runs the Theorem 3 encoder on the caller's decomposition d:
// it packs phases 1..P and encodes the fragments at the start of phase
// final = min(P+1, TotalPhases+1) as the final stage, from one
// d.Run(1, final). d must keep those phases' selections (KeepPhases 0,
// or at least P+1). The advice is byte-identical for any worker count
// of d, which also sizes the encoder's per-worker scratch.
func Encode(d *boruvka.Decomposition, cap int) (*AdviceDetail, error) {
	n := d.G.N()
	b := &adviceBuilder{
		g:      d.G,
		d:      d,
		sched:  NewSchedule(n, cap),
		advice: make([]*bitstring.BitString, n),
	}
	arena := bitstring.NewArena(n, cap+1)
	for u := range b.advice {
		b.advice[u] = arena.At(u)
		b.advice[u].AppendBit(false) // the final bit, set by the final stage
	}
	// A singleton has no phases and no final stage: its advice is the
	// final bit alone, 0 (TestAdviceGolden's n = 1 rows pin it).
	if n > 1 {
		if err := b.buildFused(); err != nil {
			return nil, err
		}
	}
	return &AdviceDetail{Advice: b.advice, Frags: b.frags, Width: b.sched.Width}, nil
}

// packBits is the phase-i fragment encoding: build A(F) = b_up ‖
// b_level ‖ bin(j) in the scratch string, then stream it greedily into
// the fragment's BFS nodes.
func (b *adviceBuilder) packBits(i int, bfs []graph.NodeID, chooser graph.NodeID, up, level bool, a *bitstring.BitString) error {
	j := -1
	for k, u := range bfs {
		if u == chooser {
			j = k
			break
		}
	}
	if j < 0 {
		return fmt.Errorf("core: chooser not in fragment BFS (internal error)")
	}
	if j >= 1<<uint(i) {
		return fmt.Errorf("core: BFS index %d of chooser needs more than %d bits (internal error)", j, i)
	}
	a.Reset()
	a.AppendBit(up)
	a.AppendBit(level)
	a.AppendUint(uint64(j), i)

	// Greedy assignment in BFS order (the paper's loop): fill the
	// earliest node with spare capacity. A node's packed bits follow its
	// final bit, so its room is what its string leaves of Cap+1.
	pos := 0
	for _, u := range bfs {
		s := b.advice[u]
		free := b.sched.Cap + 1 - s.Len()
		if free <= 0 {
			continue
		}
		take := min(a.Len()-pos, free)
		s.AppendRange(a, pos, pos+take)
		pos += take
		if pos == a.Len() {
			break
		}
	}
	if pos != a.Len() {
		return fmt.Errorf("core: phase %d fragment of size %d cannot hold %d advice bits under cap %d (Claim 1 violated)",
			i, len(bfs), a.Len(), b.sched.Cap)
	}
	return nil
}

// finalString computes one final-stage fragment's encoded value — the
// global rank of root's parent edge, or all-ones for the fragment
// holding the global root — plus the parent port (-1 for the root
// fragment). size guards the Width-bit carrier capacity.
func (b *adviceBuilder) finalString(root graph.NodeID, size int) (value uint64, port int, err error) {
	width := b.sched.Width
	port = -1
	if root == b.d.Root {
		value = 1<<uint(width) - 1 // all-ones: "I am the root"
	} else {
		port = b.d.ParentPort[root]
		rank := b.g.GlobalRankAt(root, port)
		value = uint64(rank)
		if value >= 1<<uint(width)-1 {
			return 0, 0, fmt.Errorf("core: parent rank %d collides with the root marker (internal error)", rank)
		}
	}
	if size < width {
		return 0, 0, fmt.Errorf("core: final fragment of size %d cannot hold %d bits (internal error)", size, width)
	}
	return value, port, nil
}
