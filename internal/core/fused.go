package core

import (
	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph"
)

// buildFused is the encoder: it drives the decomposition's pass 2
// (Decomposition.Run) and packs each annotated fragment into the advice
// arena the moment it is visited, so no per-fragment record is ever
// materialised. Fragments of one phase write disjoint node sets
// and phases are separated by barriers, so the arena fills in phase
// order for any worker count; per-worker scratch strings keep the visits
// allocation-free. TestAdviceGolden pins the bytes. See DESIGN.md §2.12.
func (b *adviceBuilder) buildFused(root graph.NodeID) error {
	d, err := boruvka.DecomposeOpt(b.g, root, boruvka.Options{
		Workers:    b.workers,
		KeepPhases: b.sched.P + 1,
	})
	if err != nil {
		return err
	}
	// Run roots the tree before any visit runs, so the final-stage
	// visits may read Root/ParentPort through b.d.
	b.d = d
	scratch := make([]*bitstring.BitString, b.workers)
	for w := range scratch {
		scratch[w] = bitstring.New(b.sched.P + 2)
	}
	// Each final-stage visit fills its own fragment's record. A visit's
	// BFS view lives only as long as the visit, so the carriers are
	// copied into one slab, Width nodes per fragment.
	width := b.sched.Width
	b.frags = make([]FinalFragment, d.FinalFrags())
	carriers := make([]graph.NodeID, len(b.frags)*width)
	return d.Run(func(w int, v boruvka.StreamVisit) error {
		if v.Final {
			value, port, err := b.finalString(v.Root, len(v.BFS))
			if err != nil {
				return err
			}
			c := carriers[v.Frag*width : (v.Frag+1)*width : (v.Frag+1)*width]
			copy(c, v.BFS)
			for k, u := range c {
				b.advice[u].SetBit(0, value>>uint(k)&1 == 1)
			}
			b.frags[v.Frag] = FinalFragment{Root: v.Root, ParentPort: port, Carriers: c, Value: value}
			return nil
		}
		if !v.HasSel {
			return nil
		}
		return b.packBits(v.Phase, v.BFS, v.Sel.Chooser, v.Sel.Up, v.Level == 1, scratch[w])
	})
}
