package boruvka

import (
	"reflect"
	"testing"

	"mstadvice/internal/graph"
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
// maps), representatives, sizes, and the relabelled edge list.
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
			if int(lev.Size[fi]) != f.Size() {
				t.Fatalf("level %d frag %d: Size %d, want %d", l, fi, lev.Size[fi], f.Size())
			}
			for _, u := range f.Nodes {
				if fragOf[u] != int32(fi) {
					t.Fatalf("level %d: FragOf(%d) = %d, want %d", l, u, fragOf[u], fi)
				}
			}
		}
		// Every tower edge must be a real cross-fragment edge whose
		// relabelled endpoints match the node partition.
		for _, te := range lev.Edges {
			rec := tw.G.Edge(te.E)
			if fragOf[rec.U] != te.U || fragOf[rec.V] != te.V {
				t.Fatalf("level %d edge %d: endpoints (%d,%d), partition says (%d,%d)",
					l, te.E, te.U, te.V, fragOf[rec.U], fragOf[rec.V])
			}
			if te.U == te.V {
				t.Fatalf("level %d edge %d: intra-fragment edge survived", l, te.E)
			}
		}
		// The surviving edge set is exactly the cross-fragment subset.
		cross := 0
		for ei := 0; ei < g.M(); ei++ {
			rec := g.Edge(graph.EdgeID(ei))
			if fragOf[rec.U] != fragOf[rec.V] {
				cross++
			}
		}
		if cross != len(lev.Edges) {
			t.Fatalf("level %d: %d edges kept, want %d cross-fragment edges", l, len(lev.Edges), cross)
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
