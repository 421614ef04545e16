package boruvka

import (
	"reflect"
	"testing"

	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
)

// TestKeepTowerDoesNotPerturbFlatPath pins the tentpole invariant: a run
// with KeepTower produces byte-identical flat outputs and Run visits (and
// hence byte-identical Theorem 3 advice) to a run without it.
func TestKeepTowerDoesNotPerturbFlatPath(t *testing.T) {
	g := seeded(t, "random", 200, 11, gen.WeightsDistinct)
	flat, flatD := project(t, g, 5, Options{})
	with, withD := project(t, g, 5, Options{KeepTower: true})
	if !reflect.DeepEqual(flat, with) {
		t.Fatal("KeepTower perturbed the flat outputs")
	}
	if withD.Tower == nil {
		t.Fatal("KeepTower did not retain a tower")
	}
	if flatD.Tower != nil {
		t.Fatal("Tower retained without KeepTower")
	}
}

// TestTowerConsistency cross-checks every tower level against the
// fragments reference.Boruvka finds at the start of the level's phase:
// fragment counts, node partitions (via the composed Up maps) and
// representatives.
func TestTowerConsistency(t *testing.T) {
	g := seeded(t, "random", 150, 12, gen.WeightsDistinct)
	d, err := DecomposeOpt(g, 0, Options{KeepTower: true})
	if err != nil {
		t.Fatal(err)
	}
	want := reference.Boruvka(g, 0)
	tw := d.Tower
	if got, want := tw.NumLevels(), len(want)-2; got != want {
		t.Fatalf("NumLevels = %d, want the reference's phases - 1 = %d", got, want)
	}
	for l := 1; l <= tw.NumLevels(); l++ {
		lev := tw.Level(l)
		if lev.Phase != l+1 {
			t.Fatalf("level %d has Phase %d, want %d", l, lev.Phase, l+1)
		}
		frags := want[lev.Phase-1]
		if lev.NumFrags != len(frags) {
			t.Fatalf("level %d: NumFrags %d, want %d", l, lev.NumFrags, len(frags))
		}
		fragOf := tw.FragOf(l)
		for fi, f := range frags {
			if int32(f.Nodes[0]) != lev.Rep[fi] {
				t.Fatalf("level %d frag %d: Rep %d, want smallest member %d", l, fi, lev.Rep[fi], f.Nodes[0])
			}
			for _, u := range f.Nodes {
				if fragOf[u] != int32(fi) {
					t.Fatalf("level %d: FragOf(%d) = %d, want %d", l, u, fragOf[u], fi)
				}
			}
		}
	}
	// KeepPhases must not truncate the tower.
	trunc, err := DecomposeOpt(g, 0, Options{KeepTower: true, KeepPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trunc.Tower, tw) {
		t.Fatal("KeepPhases truncated the tower")
	}
}
