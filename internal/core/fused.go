package core

import (
	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph"
)

// buildFused is the encoder: it drives the decomposition's pass 2
// (Decomposition.Run) over phases 1..final and packs each annotated
// fragment into the advice arena the moment it is visited, so no
// per-fragment record is ever materialised. Fragments of one phase
// write disjoint node sets and phases are separated by barriers, so the
// arena fills in phase order for any worker count; per-worker scratch
// strings keep the visits allocation-free. TestAdviceGolden pins the
// bytes. See DESIGN.md §2.12.
func (b *adviceBuilder) buildFused() error {
	d := b.d
	// The final stage is the partition at the start of phase P+1, or
	// the spanning fragment when the run ends sooner.
	final := min(b.sched.P+1, d.TotalPhases+1)
	scratch := make([]*bitstring.BitString, d.Workers)
	for w := range scratch {
		scratch[w] = bitstring.New(b.sched.P + 2)
	}
	// Each final-stage visit fills its own fragment's record; Run roots
	// the tree before any visit, so they may read Root/ParentPort
	// through b.d. A visit's BFS view lives only as long as the visit,
	// so the carriers are copied into one slab, Width nodes per
	// fragment.
	width := b.sched.Width
	b.frags = make([]FinalFragment, d.NumFrags(final))
	carriers := make([]graph.NodeID, len(b.frags)*width)
	return d.Run(1, final, func(w int, v boruvka.StreamVisit) error {
		if v.Phase == final {
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
