package boruvka

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
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

// decompose runs the decomposition and its Run over every phase, and
// returns it with the visits of each streamed partition (see runAll).
func decompose(t testing.TB, g *graph.Graph, root graph.NodeID) (*Decomposition, [][]StreamVisit) {
	t.Helper()
	return runAll(t, g, root, Options{})
}

// runAll decomposes g under opt and collects the visits of Run's whole
// window, phases 1..TotalPhases+1 (see collect); the last partition is
// the spanning fragment.
func runAll(t testing.TB, g *graph.Graph, root graph.NodeID, opt Options) (*Decomposition, [][]StreamVisit) {
	t.Helper()
	d, err := DecomposeOpt(g, root, opt)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := collect(d, 1, d.TotalPhases+1)
	if err != nil {
		t.Fatal(err)
	}
	return d, parts
}

// collect runs d over the window [first, last] and gathers every visit
// with its BFS copied out of Run's arena. parts[j] holds the visits of
// phase j+1 by fragment ID, and is empty for a phase the window skips;
// the visit order within a phase is unspecified, so the fragments are
// placed by Frag. A Run error comes back with the visits made before
// it.
func collect(d *Decomposition, first, last int) ([][]StreamVisit, error) {
	var mu sync.Mutex
	var parts [][]StreamVisit
	err := d.Run(first, last, func(_ int, v StreamVisit) error {
		v.BFS = slices.Clone(v.BFS)
		mu.Lock()
		defer mu.Unlock()
		for len(parts) < v.Phase {
			parts = append(parts, nil)
		}
		part := &parts[v.Phase-1]
		for len(*part) <= v.Frag {
			*part = append(*part, StreamVisit{Phase: -1})
		}
		(*part)[v.Frag] = v
		return nil
	})
	if err != nil {
		return parts, err
	}
	for j, part := range parts {
		for fi, v := range part {
			if v.Phase != j+1 || v.Frag != fi {
				return parts, fmt.Errorf("partition %d has no visit for fragment %d", j+1, fi)
			}
		}
	}
	return parts, nil
}

// fragOf maps every node to its fragment in one streamed partition.
func fragOf(n int, part []StreamVisit) []int {
	of := make([]int, n)
	for fi, v := range part {
		for _, u := range v.BFS {
			of[u] = fi
		}
	}
	return of
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
		d, _ := decompose(t, g, 0)
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
		d, parts := decompose(t, g, 0)
		for _, part := range parts[:d.TotalPhases] {
			i := part[0].Phase
			actives := 0
			for _, f := range part {
				size := len(f.BFS)
				if f.Active {
					actives++
					if size >= 1<<uint(i) {
						t.Fatalf("graph %d phase %d: active fragment of size %d >= 2^%d", gi, i, size, i)
					}
					if i > 1 && size < 1<<uint(i-1) {
						t.Fatalf("graph %d phase %d: active fragment of size %d < 2^%d", gi, i, size, i-1)
					}
				} else if size < 1<<uint(i) {
					t.Fatalf("graph %d phase %d: passive fragment of size %d < 2^%d", gi, i, size, i)
				}
			}
			if i > 1 && actives > g.N()/(1<<uint(i-1)) {
				t.Fatalf("graph %d phase %d: %d active fragments > n/2^(i-1)", gi, i, actives)
			}
		}
		// Number of phases is at most ceil(log n) (+1 slack for the n=1 case).
		if g.N() > 1 && d.TotalPhases > graph.CeilLog2(g.N()) {
			t.Fatalf("graph %d: %d phases > ceil(log %d)", gi, d.TotalPhases, g.N())
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
		_, parts := decompose(t, g, 0)
		for _, part := range parts {
			for _, f := range part {
				if !f.HasSel {
					continue
				}
				u := f.Sel.Chooser
				port := g.PortAt(f.Sel.Edge, u)
				rank := g.GlobalRankAt(u, port) // 0-based
				if rank+1 > len(f.BFS) {
					t.Fatalf("graph %d phase %d: selected edge has global rank %d > |F| = %d",
						gi, f.Phase, rank+1, len(f.BFS))
				}
			}
		}
	}
}

func TestLemma2LocalOrderDistinctWeights(t *testing.T) {
	for _, fam := range gen.Names() {
		for _, n := range []int{8, 31, 64} {
			g := seeded(t, fam, n, uint64(int64(n)), gen.WeightsDistinct)
			_, parts := decompose(t, g, 0)
			for _, part := range parts {
				for _, f := range part {
					if !f.HasSel {
						continue
					}
					u := f.Sel.Chooser
					port := g.PortAt(f.Sel.Edge, u)
					rank := g.LocalRank(u, port)
					if rank+1 > len(f.BFS) {
						t.Fatalf("%s n=%d phase %d: local rank %d > |F| = %d",
							fam, n, f.Phase, rank+1, len(f.BFS))
					}
					// The index bound used by the advice widths: rank fits
					// in i bits since |F| < 2^i.
					if rank >= 1<<uint(f.Phase) {
						t.Fatalf("%s n=%d phase %d: rank %d needs more than %d bits",
							fam, n, f.Phase, rank, f.Phase)
					}
				}
			}
		}
	}
}

// Fragment structure invariants: every streamed partition, the spanning
// fragment's included, is exact, roots are unique and correct, and BFS
// orders enumerate the fragment starting at its root.
func TestFragmentInvariants(t *testing.T) {
	for gi, g := range testGraphs(t) {
		d, parts := decompose(t, g, 0)
		if len(parts) != d.TotalPhases+1 {
			t.Fatalf("graph %d: %d partitions streamed for %d phases", gi, len(parts), d.TotalPhases)
		}
		for _, part := range parts {
			pi := part[0].Phase
			seen := make(map[graph.NodeID]bool)
			for _, f := range part {
				if len(f.BFS) == 0 {
					t.Fatalf("graph %d phase %d: empty fragment", gi, pi)
				}
				inF := make(map[graph.NodeID]bool, len(f.BFS))
				for _, u := range f.BFS {
					if seen[u] {
						t.Fatalf("graph %d phase %d: node %d visited twice", gi, pi, u)
					}
					seen[u] = true
					inF[u] = true
				}
				// BFS order starts at the root, a member whose parent edge
				// leaves the fragment.
				if f.BFS[0] != f.Root {
					t.Fatalf("graph %d phase %d: BFS order does not start at the root", gi, pi)
				}
				pe := d.ParentEdge[f.Root]
				if pe != -1 && inF[g.Other(pe, f.Root)] {
					t.Fatalf("graph %d phase %d: root's parent is inside the fragment", gi, pi)
				}
				// Every non-root member's path to the root stays inside F.
				for _, u := range f.BFS[1:] {
					pe := d.ParentEdge[u]
					if pe == -1 || !inF[g.Other(pe, u)] {
						t.Fatalf("graph %d phase %d: member %d has parent outside fragment", gi, pi, u)
					}
				}
			}
			if len(seen) != g.N() {
				t.Fatalf("graph %d phase %d: partition covers %d of %d nodes", gi, pi, len(seen), g.N())
			}
			// Fragment IDs are dense in order of smallest member.
			for fi := 1; fi < len(part); fi++ {
				if slices.Min(part[fi-1].BFS) > slices.Min(part[fi].BFS) {
					t.Fatalf("graph %d phase %d: fragments %d and %d out of smallest-member order", gi, pi, fi-1, fi)
				}
			}
		}
	}
}

// Levels: adjacent fragments in T_i have opposite parity, and the fragment
// holding the global root has level 0.
func TestLevels(t *testing.T) {
	for gi, g := range testGraphs(t) {
		d, parts := decompose(t, g, 0)
		for _, part := range parts {
			of := fragOf(g.N(), part)
			if part[of[d.Root]].Level != 0 {
				t.Fatalf("graph %d phase %d: root fragment has level 1", gi, part[0].Phase)
			}
			for _, e := range d.TreeEdges {
				rec := g.Edge(e)
				fu, fv := of[rec.U], of[rec.V]
				if fu == fv {
					continue
				}
				if part[fu].Level == part[fv].Level {
					t.Fatalf("graph %d phase %d: adjacent fragments share level", gi, part[0].Phase)
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
		d, parts := decompose(t, g, 0)
		inTree := make(map[graph.EdgeID]bool)
		for _, e := range d.TreeEdges {
			inTree[e] = true
		}
		for _, part := range parts {
			of := fragOf(g.N(), part)
			for fi, f := range part {
				if !f.Active {
					if f.HasSel {
						t.Fatalf("graph %d phase %d: passive fragment has a selection", gi, f.Phase)
					}
					continue
				}
				if !f.HasSel {
					if len(part) > 1 {
						t.Fatalf("graph %d phase %d: active fragment without selection", gi, f.Phase)
					}
					continue
				}
				sel := f.Sel
				if of[sel.Chooser] != fi {
					t.Fatalf("graph %d phase %d: chooser outside fragment", gi, f.Phase)
				}
				if !inTree[sel.Edge] {
					t.Fatalf("graph %d phase %d: selected edge not in T", gi, f.Phase)
				}
				rec := g.Edge(sel.Edge)
				if of[rec.U] == of[rec.V] {
					t.Fatalf("graph %d phase %d: selected edge internal", gi, f.Phase)
				}
				// Global minimality among outgoing edges.
				for ei := 0; ei < g.M(); ei++ {
					e := graph.EdgeID(ei)
					r := g.Edge(e)
					out := (of[r.U] == fi) != (of[r.V] == fi)
					if out && g.EdgeLess(e, sel.Edge) {
						t.Fatalf("graph %d phase %d: outgoing edge %d beats selected %d", gi, f.Phase, e, sel.Edge)
					}
				}
				wantUp := d.ParentEdge[sel.Chooser] == sel.Edge
				if sel.Up != wantUp {
					t.Fatalf("graph %d phase %d: Up = %v, want %v", gi, f.Phase, sel.Up, wantUp)
				}
				if sel.Up && sel.Chooser != f.Root {
					t.Fatalf("graph %d phase %d: up-selection by non-root chooser", gi, f.Phase)
				}
			}
		}
	}
}

// SelPhase: every tree edge is selected exactly once, at a phase in which
// its endpoints were in different fragments.
func TestSelPhase(t *testing.T) {
	for gi, g := range testGraphs(t) {
		d, parts := decompose(t, g, 0)
		for _, e := range d.TreeEdges {
			i := int(d.SelPhase[e])
			if i < 1 || i > d.TotalPhases {
				t.Fatalf("graph %d: tree edge %d has SelPhase %d", gi, e, i)
			}
			of := fragOf(g.N(), parts[i-1])
			rec := g.Edge(e)
			if of[rec.U] == of[rec.V] {
				t.Fatalf("graph %d: edge %d already internal at its selection phase", gi, e)
			}
		}
		for ei := 0; ei < g.M(); ei++ {
			e := graph.EdgeID(ei)
			if d.SelPhase[e] != 0 && !slices.Contains(d.TreeEdges, e) {
				t.Fatalf("graph %d: non-tree edge %d has SelPhase set", gi, e)
			}
		}
	}
}

// final returns the spanning fragment Run streams after the last phase.
func final(t *testing.T, g *graph.Graph, root graph.NodeID) StreamVisit {
	t.Helper()
	d, parts := decompose(t, g, root)
	last := parts[len(parts)-1]
	if len(last) != 1 || last[0].Phase != d.TotalPhases+1 {
		t.Fatalf("the last partition (phase %d of %d, %d fragments) is not the spanning fragment", last[0].Phase, d.TotalPhases, len(last))
	}
	return last[0]
}

// The final fragment spans the graph and its BFS order starts at the
// global root.
func TestFinalFragment(t *testing.T) {
	g := seeded(t, "random", 40, 5, gen.WeightsDistinct)
	root := graph.NodeID(13)
	f := final(t, g, root)
	if len(f.BFS) != g.N() {
		t.Fatalf("final fragment size %d", len(f.BFS))
	}
	if f.Root != root || f.BFS[0] != root {
		t.Fatal("final fragment not rooted at the global root")
	}
	if f.Level != 0 || f.Active || f.HasSel {
		t.Fatal("final fragment should be level 0, passive and without a selection")
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
	bfs := final(t, g, 0).BFS
	want := []graph.NodeID{0, 2, 3, 1}
	if !slices.Equal(bfs, want) {
		t.Fatalf("final BFS = %v, want %v", bfs, want)
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
	bfs := final(t, g, 0).BFS
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
	if _, err := DecomposeOpt(g, 0, Options{}); err == nil {
		t.Error("disconnected graph accepted")
	}
	g2 := reference.MustBuild(graph.NewBuilder(2).AddEdge(0, 1, 1))
	if _, err := DecomposeOpt(g2, 5, Options{}); err == nil {
		t.Error("out-of-range root accepted")
	}
}

func TestSingleNode(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(1))
	d, parts := decompose(t, g, 0)
	if d.TotalPhases != 0 || len(parts) != 1 || len(parts[0]) != 1 || len(parts[0][0].BFS) != 1 {
		t.Fatalf("K1: %d phases, %d partitions streamed", d.TotalPhases, len(parts))
	}
	if d.ParentPort[0] != -1 {
		t.Fatal("K1 root should have no parent")
	}
}

func TestDeterminism(t *testing.T) {
	g1 := seeded(t, "random", 30, 77, gen.WeightsUnit)
	g2 := seeded(t, "random", 30, 77, gen.WeightsUnit)
	d1, parts1 := decompose(t, g1, 3)
	d2, parts2 := decompose(t, g2, 3)
	if d1.TotalPhases != d2.TotalPhases {
		t.Fatal("phase counts differ")
	}
	if !slices.Equal(d1.TreeEdges, d2.TreeEdges) {
		t.Fatal("trees differ across identical runs")
	}
	if !reflect.DeepEqual(parts1, parts2) {
		t.Fatal("Run visits differ across identical runs")
	}
}

func BenchmarkDecompose(b *testing.B) {
	g := seeded(b, "random", 512, 1, gen.WeightsDistinct)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposeOpt(g, 0, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
