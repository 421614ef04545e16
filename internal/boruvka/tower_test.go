package boruvka

import (
	"reflect"
	"testing"

	"mstadvice/internal/graph/gen"
)

// TestKeepTowerDoesNotPerturbFlatPath pins the tentpole invariant: a run
// with KeepTower produces byte-identical flat outputs (and hence
// byte-identical Theorem 3 advice) to a run without it.
func TestKeepTowerDoesNotPerturbFlatPath(t *testing.T) {
	g := seeded(t, "random", 200, 11, gen.WeightsDistinct)
	flat, err := Decompose(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	with, err := DecomposeOpt(g, 5, Options{KeepTower: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(project(flat), project(with)) {
		t.Fatal("KeepTower perturbed the flat outputs")
	}
	if with.Tower == nil {
		t.Fatal("KeepTower did not retain a tower")
	}
	if flat.Tower != nil {
		t.Fatal("Tower retained without KeepTower")
	}
}

// TestTowerConsistency cross-checks every tower level against the flat
// phase record: fragment counts, node partitions (via the composed Up
// maps) and representatives.
func TestTowerConsistency(t *testing.T) {
	g := seeded(t, "random", 150, 12, gen.WeightsDistinct)
	d, err := DecomposeOpt(g, 0, Options{KeepTower: true})
	if err != nil {
		t.Fatal(err)
	}
	tw := d.Tower
	if got, want := tw.NumLevels(), d.TotalPhases-1; got != want {
		t.Fatalf("NumLevels = %d, want TotalPhases-1 = %d", got, want)
	}
	for l := 1; l <= tw.NumLevels(); l++ {
		lev := tw.Level(l)
		if lev.Phase != l+1 {
			t.Fatalf("level %d has Phase %d, want %d", l, lev.Phase, l+1)
		}
		frags := d.FragmentsAtStart(lev.Phase)
		if lev.NumFrags != len(frags) {
			t.Fatalf("level %d: NumFrags %d, want %d", l, lev.NumFrags, len(frags))
		}
		fragOf := tw.FragOf(l)
		for fi := range frags {
			f := &frags[fi]
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
