package core

import (
	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph"
)

// buildFused is the encoder: it drives the decomposition's streaming
// pass 2 (boruvka.Stream) and packs each annotated fragment into the
// advice arena the moment it is visited, so no Phase or Fragment record
// is ever materialised. Fragments of one phase write disjoint node sets
// and phases are separated by barriers, so the arena fills in phase
// order for any worker count; per-worker scratch strings keep the visits
// allocation-free. TestAdviceGolden pins the bytes. See DESIGN.md §2.12.
func (b *adviceBuilder) buildFused(root graph.NodeID) error {
	s, err := boruvka.NewStream(b.g, root, boruvka.Options{
		Workers:    b.workers,
		KeepPhases: b.sched.P + 1,
	})
	if err != nil {
		return err
	}
	// The flat Decomposition is complete before any visit runs, so the
	// final-stage visits may read Root/ParentPort through b.d.
	b.d = s.D
	scratch := make([]*bitstring.BitString, b.workers)
	for w := range scratch {
		scratch[w] = bitstring.New(b.sched.P + 2)
	}
	// Final-stage fragments stream in schedule order, so their records
	// collect per worker and scatter into b.frags by fragment index once
	// the stream completes.
	type finalRec struct {
		fi   int
		frag FinalFragment
	}
	finals := make([][]finalRec, b.workers)
	width := b.sched.Width
	err = s.Run(func(w int, v boruvka.StreamVisit) error {
		if v.Final {
			value, port, err := b.finalString(v.Root, len(v.BFS))
			if err != nil {
				return err
			}
			for k := 0; k < width; k++ {
				b.advice[v.BFS[k]].SetBit(0, value>>uint(k)&1 == 1)
			}
			finals[w] = append(finals[w], finalRec{v.Frag, FinalFragment{
				Root:       v.Root,
				ParentPort: port,
				Carriers:   v.BFS[:width:width],
				Value:      value,
			}})
			return nil
		}
		if !v.HasSel {
			return nil
		}
		return b.packBits(v.Phase, v.BFS, v.Sel.Chooser, v.Sel.Up, v.Level == 1, scratch[w])
	})
	if err != nil {
		return err
	}
	nf := 0
	for _, recs := range finals {
		for _, r := range recs {
			if r.fi+1 > nf {
				nf = r.fi + 1
			}
		}
	}
	b.frags = make([]FinalFragment, nf)
	for _, recs := range finals {
		for _, r := range recs {
			b.frags[r.fi] = r.frag
		}
	}
	return nil
}
