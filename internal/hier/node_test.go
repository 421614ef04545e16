package hier

import (
	"slices"
	"testing"

	"mstadvice/internal/boruvka"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
	"mstadvice/internal/sim"
)

// TestHierRootCollection holds every fragment root's collection, after
// a run, to the fragment BFS order of reference.Boruvka, which shares
// no code with the decoder or the oracle: it must list exactly the
// first min(⌈log n⌉, |F|) nodes of that order. Every seeded family,
// with tied and with equal weights, at levels 1, 2 and the coarsest.
func TestHierRootCollection(t *testing.T) {
	for _, fam := range gen.Names() {
		for _, w := range []gen.WeightMode{gen.WeightsRandom, gen.WeightsUnit} {
			g, err := gen.BuildSeeded(fam, 200, 43, gen.SeededOptions{Weights: w})
			if err != nil {
				t.Fatal(err)
			}
			root := graph.NodeID(g.N() / 2)
			d, err := boruvka.DecomposeOpt(g, root, boruvka.Options{})
			if err != nil {
				t.Fatal(err)
			}
			width := graph.CeilLog2(g.N())
			phases := reference.Boruvka(g, root)
			for _, level := range []int{1, 2, d.TotalPhases} {
				level = min(level, d.TotalPhases)
				advs, err := Encode(d, []int{level})
				if err != nil {
					t.Fatal(err)
				}
				adv := advs[0]
				nodes := make([]*node, 0, g.N())
				factory := func(view *sim.NodeView) sim.Node {
					n := newNode(view).(*node)
					nodes = append(nodes, n) // the engine builds nodes in node order
					return n
				}
				res, err := sim.NewNetwork(g).Run(factory, adv, sim.Options{})
				if err != nil {
					t.Fatalf("%s %v level %d: %v", fam, w, level, err)
				}
				if !slices.Equal(res.ParentPorts, d.ParentPort) {
					t.Fatalf("%s %v level %d: parent ports differ from the oracle's", fam, w, level)
				}
				for fi, f := range phases[level] {
					var want []int64
					for _, u := range f.BFS[:min(width, len(f.BFS))] {
						want = append(want, g.ID(u))
					}
					var got []int64
					for _, r := range nodes[f.Root].cc.Held() {
						got = append(got, r.ID)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s %v level %d: fragment %d root holds %v, want %v", fam, w, level, fi, got, want)
					}
				}
			}
		}
	}
}
