package boruvka

import (
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
)

// TestTowerConsistency cross-checks the contraction tower at every
// phase against the fragments reference.Boruvka finds at its start, on
// every family in all three weight modes: fragment counts (NumFrags),
// node partitions (FragOf) and representatives. A tier names each
// supernode by its smallest member, which it derives from FragOf, and
// that must be the reference fragment's smallest member.
func TestTowerConsistency(t *testing.T) {
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for gi, fam := range gen.Names() {
			g := seeded(t, fam, 150, uint64(12+gi), mode)
			root := graph.NodeID(gi)
			d, err := DecomposeOpt(g, root, Options{KeepPhases: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := reference.Boruvka(g, root)
			if d.TotalPhases != len(want)-1 {
				t.Fatalf("%s: %d phases, the reference %d", fam, d.TotalPhases, len(want)-1)
			}
			for phase := 1; phase <= d.TotalPhases+1; phase++ {
				frags := want[phase-1]
				if got := d.NumFrags(phase); got != len(frags) {
					t.Fatalf("%s phase %d: NumFrags %d, want %d", fam, phase, got, len(frags))
				}
				fragOf := d.FragOf(phase)
				rep := make([]int32, len(frags))
				for u := len(fragOf) - 1; u >= 0; u-- {
					rep[fragOf[u]] = int32(u)
				}
				for fi, f := range frags {
					if rep[fi] != int32(f.Nodes[0]) {
						t.Fatalf("%s phase %d frag %d: smallest member %d, want %d", fam, phase, fi, rep[fi], f.Nodes[0])
					}
					for _, u := range f.Nodes {
						if fragOf[u] != int32(fi) {
							t.Fatalf("%s phase %d: FragOf(%d) = %d, want %d", fam, phase, u, fragOf[u], fi)
						}
					}
				}
			}
		}
	}
}
