package boruvka

import (
	"slices"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/mst"
	"mstadvice/internal/reference"
)

// seeded builds the named seeded family, failing the test on an error.
func seeded(tb testing.TB, family string, n int, seed uint64, w gen.WeightMode) *graph.Graph {
	tb.Helper()
	g, err := gen.BuildSeeded(family, n, seed, gen.SeededOptions{Weights: w})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func decompose(t *testing.T, g *graph.Graph, root graph.NodeID) *Decomposition {
	t.Helper()
	d, err := Decompose(g, root)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// testGraphs yields a diverse corpus: every family x sizes x weight modes.
func testGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	var out []*graph.Graph
	seed := int64(0)
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{1, 2, 3, 7, 16, 33, 64} {
				seed++
				if n < 2 && fam != "path" && fam != "tree" {
					continue
				}
				out = append(out, seeded(t, fam, n, uint64(seed), mode))
			}
		}
	}
	return out
}

func TestTreeMatchesKruskal(t *testing.T) {
	for gi, g := range testGraphs(t) {
		d := decompose(t, g, 0)
		want, err := mst.Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(d.TreeEdges, want) {
			t.Fatalf("graph %d: decomposition tree differs from Kruskal", gi)
		}
		if err := mst.VerifyRooted(g, d.ParentPort, 0); err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
	}
}

// Lemma 1: a fragment active at phase i satisfies 2^(i-1) <= |F| < 2^i,
// and at most n/2^(i-1) fragments are active at phase i.
func TestLemma1(t *testing.T) {
	for gi, g := range testGraphs(t) {
		d := decompose(t, g, 0)
		for _, ph := range d.Phases {
			i := ph.Index
			actives := 0
			for fi := range ph.Fragments {
				f := &ph.Fragments[fi]
				if f.Active {
					actives++
					if f.Size() >= 1<<uint(i) {
						t.Fatalf("graph %d phase %d: active fragment of size %d >= 2^%d", gi, i, f.Size(), i)
					}
					if i > 1 && f.Size() < 1<<uint(i-1) {
						t.Fatalf("graph %d phase %d: active fragment of size %d < 2^%d", gi, i, f.Size(), i-1)
					}
				} else if f.Size() < 1<<uint(i) {
					t.Fatalf("graph %d phase %d: passive fragment of size %d < 2^%d", gi, i, f.Size(), i)
				}
			}
			if i > 1 && actives > g.N()/(1<<uint(i-1)) {
				t.Fatalf("graph %d phase %d: %d active fragments > n/2^(i-1)", gi, i, actives)
			}
		}
		// Number of phases is at most ceil(log n) (+1 slack for the n=1 case).
		if g.N() > 1 && d.NumPhases() > graph.CeilLog2(g.N()) {
			t.Fatalf("graph %d: %d phases > ceil(log %d)", gi, d.NumPhases(), g.N())
		}
	}
}

// Lemma 2 (operational form): the selected edge of a fragment F is, at its
// chooser, within the first |F| incident edges in the global order, because
// every strictly smaller incident edge is internal to F. With weights that
// are distinct at each node the same bound holds for the local
// (weight, port) order, which is what the Theorem 2 advice encodes.
func TestLemma2GlobalOrder(t *testing.T) {
	for gi, g := range testGraphs(t) {
		d := decompose(t, g, 0)
		for _, ph := range d.Phases {
			for fi := range ph.Fragments {
				f := &ph.Fragments[fi]
				if f.Sel == nil {
					continue
				}
				u := f.Sel.Chooser
				port := g.PortAt(f.Sel.Edge, u)
				rank := g.GlobalRankAt(u, port) // 0-based
				if rank+1 > f.Size() {
					t.Fatalf("graph %d phase %d: selected edge has global rank %d > |F| = %d",
						gi, ph.Index, rank+1, f.Size())
				}
			}
		}
	}
}

func TestLemma2LocalOrderDistinctWeights(t *testing.T) {
	for _, fam := range gen.Names() {
		for _, n := range []int{8, 31, 64} {
			g := seeded(t, fam, n, uint64(int64(n)), gen.WeightsDistinct)
			d := decompose(t, g, 0)
			for _, ph := range d.Phases {
				for fi := range ph.Fragments {
					f := &ph.Fragments[fi]
					if f.Sel == nil {
						continue
					}
					u := f.Sel.Chooser
					port := g.PortAt(f.Sel.Edge, u)
					rank := g.LocalRank(u, port)
					if rank+1 > f.Size() {
						t.Fatalf("%s n=%d phase %d: local rank %d > |F| = %d",
							fam, n, ph.Index, rank+1, f.Size())
					}
					// The index bound used by the advice widths: rank fits
					// in i bits since |F| < 2^i.
					if rank >= 1<<uint(ph.Index) {
						t.Fatalf("%s n=%d phase %d: rank %d needs more than %d bits",
							fam, n, ph.Index, rank, ph.Index)
					}
				}
			}
		}
	}
}

// Fragment structure invariants: partitions are exact, roots are unique
// and correct, BFS orders enumerate the fragment starting at its root.
func TestFragmentInvariants(t *testing.T) {
	for gi, g := range testGraphs(t) {
		d := decompose(t, g, 0)
		phases := make([]Phase, len(d.Phases))
		copy(phases, d.Phases)
		for pi := 1; pi <= d.NumPhases()+1; pi++ {
			frags := d.FragmentsAtStart(pi)
			seen := make(map[graph.NodeID]bool)
			for fi := range frags {
				f := &frags[fi]
				if f.Size() == 0 {
					t.Fatalf("graph %d phase %d: empty fragment", gi, pi)
				}
				for _, u := range f.Nodes {
					if seen[u] {
						t.Fatalf("graph %d phase %d: node %d in two fragments", gi, pi, u)
					}
					seen[u] = true
				}
				// Root is a member whose parent edge leaves the fragment.
				inF := make(map[graph.NodeID]bool, f.Size())
				for _, u := range f.Nodes {
					inF[u] = true
				}
				if !inF[f.Root] {
					t.Fatalf("graph %d phase %d: root not a member", gi, pi)
				}
				pe := d.ParentEdge[f.Root]
				if pe != -1 && inF[g.Other(pe, f.Root)] {
					t.Fatalf("graph %d phase %d: root's parent is inside the fragment", gi, pi)
				}
				// Every non-root member's path to the root stays inside F.
				for _, u := range f.Nodes {
					if u == f.Root {
						continue
					}
					pe := d.ParentEdge[u]
					if pe == -1 || !inF[g.Other(pe, u)] {
						t.Fatalf("graph %d phase %d: member %d has parent outside fragment", gi, pi, u)
					}
				}
				// BFS order: a permutation of the members starting at root.
				if len(f.BFS) != f.Size() || f.BFS[0] != f.Root {
					t.Fatalf("graph %d phase %d: bad BFS order", gi, pi)
				}
				seenBFS := make(map[graph.NodeID]bool)
				for _, u := range f.BFS {
					if !inF[u] || seenBFS[u] {
						t.Fatalf("graph %d phase %d: BFS order invalid", gi, pi)
					}
					seenBFS[u] = true
				}
			}
			if len(seen) != g.N() {
				t.Fatalf("graph %d phase %d: partition covers %d of %d nodes", gi, pi, len(seen), g.N())
			}
		}
	}
}

// Levels: adjacent fragments in T_i have opposite parity, and the fragment
// holding the global root has level 0.
func TestLevels(t *testing.T) {
	for gi, g := range testGraphs(t) {
		d := decompose(t, g, 0)
		for _, ph := range d.Phases {
			if ph.Fragments[ph.FragOf[d.Root]].Level != 0 {
				t.Fatalf("graph %d phase %d: root fragment has level 1", gi, ph.Index)
			}
			for _, e := range d.TreeEdges {
				rec := g.Edge(e)
				fu, fv := ph.FragOf[rec.U], ph.FragOf[rec.V]
				if fu == fv {
					continue
				}
				if ph.Fragments[fu].Level == ph.Fragments[fv].Level {
					t.Fatalf("graph %d phase %d: adjacent fragments share level", gi, ph.Index)
				}
			}
		}
	}
}

// Selections: the chooser is a member, the selected edge leaves the
// fragment, is a tree edge, is globally minimal among the fragment's
// outgoing edges, and Up is set iff it is the chooser's parent edge. An
// up-selected edge implies the chooser is the fragment root (used by the
// decoders).
func TestSelections(t *testing.T) {
	for gi, g := range testGraphs(t) {
		d := decompose(t, g, 0)
		inTree := make(map[graph.EdgeID]bool)
		for _, e := range d.TreeEdges {
			inTree[e] = true
		}
		for _, ph := range d.Phases {
			for fi := range ph.Fragments {
				f := &ph.Fragments[fi]
				if !f.Active {
					if f.Sel != nil {
						t.Fatalf("graph %d phase %d: passive fragment has a selection", gi, ph.Index)
					}
					continue
				}
				if f.Sel == nil {
					if len(ph.Fragments) > 1 {
						t.Fatalf("graph %d phase %d: active fragment without selection", gi, ph.Index)
					}
					continue
				}
				sel := f.Sel
				if ph.FragOf[sel.Chooser] != f.ID {
					t.Fatalf("graph %d phase %d: chooser outside fragment", gi, ph.Index)
				}
				if !inTree[sel.Edge] {
					t.Fatalf("graph %d phase %d: selected edge not in T", gi, ph.Index)
				}
				rec := g.Edge(sel.Edge)
				if ph.FragOf[rec.U] == ph.FragOf[rec.V] {
					t.Fatalf("graph %d phase %d: selected edge internal", gi, ph.Index)
				}
				// Global minimality among outgoing edges.
				for ei := 0; ei < g.M(); ei++ {
					e := graph.EdgeID(ei)
					r := g.Edge(e)
					out := (ph.FragOf[r.U] == f.ID) != (ph.FragOf[r.V] == f.ID)
					if out && g.EdgeLess(e, sel.Edge) {
						t.Fatalf("graph %d phase %d: outgoing edge %d beats selected %d", gi, ph.Index, e, sel.Edge)
					}
				}
				wantUp := d.ParentEdge[sel.Chooser] == sel.Edge
				if sel.Up != wantUp {
					t.Fatalf("graph %d phase %d: Up = %v, want %v", gi, ph.Index, sel.Up, wantUp)
				}
				if sel.Up && sel.Chooser != f.Root {
					t.Fatalf("graph %d phase %d: up-selection by non-root chooser", gi, ph.Index)
				}
			}
		}
		_ = inTree
	}
}

// SelPhase: every tree edge is selected exactly once, at a phase in which
// its endpoints were in different fragments.
func TestSelPhase(t *testing.T) {
	for gi, g := range testGraphs(t) {
		d := decompose(t, g, 0)
		for _, e := range d.TreeEdges {
			i := int(d.SelPhase[e])
			if i < 1 || i > d.NumPhases() {
				t.Fatalf("graph %d: tree edge %d has SelPhase %d", gi, e, i)
			}
			ph := d.Phases[i-1]
			rec := g.Edge(e)
			if ph.FragOf[rec.U] == ph.FragOf[rec.V] {
				t.Fatalf("graph %d: edge %d already internal at its selection phase", gi, e)
			}
		}
		for ei := 0; ei < g.M(); ei++ {
			e := graph.EdgeID(ei)
			if d.SelPhase[e] != 0 && !contains(d.TreeEdges, e) {
				t.Fatalf("graph %d: non-tree edge %d has SelPhase set", gi, e)
			}
		}
	}
}

func contains(es []graph.EdgeID, e graph.EdgeID) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

// The final fragment spans the graph and its BFS order starts at the
// global root.
func TestFinalFragment(t *testing.T) {
	g := seeded(t, "random", 40, 5, gen.WeightsDistinct)
	root := graph.NodeID(13)
	d := decompose(t, g, root)
	if d.Final.Size() != g.N() {
		t.Fatalf("final fragment size %d", d.Final.Size())
	}
	if d.Final.Root != root || d.Final.BFS[0] != root {
		t.Fatal("final fragment not rooted at the global root")
	}
	if d.Final.Level != 0 {
		t.Fatal("final fragment should be level 0")
	}
}

// BFS child ordering follows (weight, port at parent).
func TestBFSChildOrder(t *testing.T) {
	// Star with distinct weights: root 0; after full decomposition the
	// final BFS must order children by weight.
	g := reference.MustBuild(graph.NewBuilder(4).
		AddEdge(0, 1, 30).
		AddEdge(0, 2, 10).
		AddEdge(0, 3, 20))
	d := decompose(t, g, 0)
	bfs := d.Final.BFS
	want := []graph.NodeID{0, 2, 3, 1}
	for i := range want {
		if bfs[i] != want[i] {
			t.Fatalf("final BFS = %v, want %v", bfs, want)
		}
	}
}

// TestBFSHubOrder builds a star whose leaves arrive in reverse (weight,
// port at the centre) order, with pairs of leaves tied on weight: the
// final BFS must list the leaves in increasing (weight, port) order.
func TestBFSHubOrder(t *testing.T) {
	const k = 3000
	b := graph.NewBuilder(k + 1)
	for leaf := 1; leaf <= k; leaf++ { // leaf at port leaf-1 of the centre
		b.AddEdge(0, graph.NodeID(leaf), graph.Weight((k-leaf)/2+1))
	}
	g := reference.MustBuild(b)
	bfs := decompose(t, g, 0).Final.BFS
	if len(bfs) != k+1 || bfs[0] != 0 {
		t.Fatalf("final BFS has %d nodes starting at %d", len(bfs), bfs[0])
	}
	for i := 2; i < len(bfs); i++ {
		a, c := bfs[i-1], bfs[i]
		wa, wc := g.Weight(g.HalfAt(0, int(a)-1).Edge), g.Weight(g.HalfAt(0, int(c)-1).Edge)
		if wa > wc || (wa == wc && a > c) {
			t.Fatalf("leaves %d (weight %d) and %d (weight %d) out of (weight, port) order", a, wa, c, wc)
		}
	}
}

func TestErrors(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(4).AddEdge(0, 1, 1).AddEdge(2, 3, 1))
	if _, err := Decompose(g, 0); err == nil {
		t.Error("disconnected graph accepted")
	}
	g2 := reference.MustBuild(graph.NewBuilder(2).AddEdge(0, 1, 1))
	if _, err := Decompose(g2, 5); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestSingleNode(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(1))
	d := decompose(t, g, 0)
	if d.NumPhases() != 0 || d.Final.Size() != 1 {
		t.Fatalf("K1: phases=%d final=%d", d.NumPhases(), d.Final.Size())
	}
	if d.ParentPort[0] != -1 {
		t.Fatal("K1 root should have no parent")
	}
}

func TestDeterminism(t *testing.T) {
	g1 := seeded(t, "random", 30, 77, gen.WeightsUnit)
	g2 := seeded(t, "random", 30, 77, gen.WeightsUnit)
	d1 := decompose(t, g1, 3)
	d2 := decompose(t, g2, 3)
	if d1.NumPhases() != d2.NumPhases() {
		t.Fatal("phase counts differ")
	}
	if !slices.Equal(d1.TreeEdges, d2.TreeEdges) {
		t.Fatal("trees differ across identical runs")
	}
	for i := range d1.Phases {
		f1, f2 := d1.Phases[i].Fragments, d2.Phases[i].Fragments
		if len(f1) != len(f2) {
			t.Fatal("fragment counts differ")
		}
		for j := range f1 {
			if f1[j].Root != f2[j].Root || f1[j].Level != f2[j].Level {
				t.Fatal("fragment annotations differ")
			}
		}
	}
}

func BenchmarkDecompose(b *testing.B) {
	g := seeded(b, "random", 512, 1, gen.WeightsDistinct)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}
