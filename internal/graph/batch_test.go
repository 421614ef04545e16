package graph_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/mst"
	"mstadvice/internal/reference"
)

// nonTreeEdges returns every edge of g outside its MST, in a seeded
// shuffled order: one batch deleting them all leaves exactly a spanning
// tree, the largest deletion batch ApplyBatch accepts.
func nonTreeEdges(tb testing.TB, g *graph.Graph, seed int64) []graph.EdgeID {
	tb.Helper()
	tree, err := mst.Kruskal(g)
	if err != nil {
		tb.Fatal(err)
	}
	inTree := make([]bool, g.M())
	for _, e := range tree {
		inTree[e] = true
	}
	var del []graph.EdgeID
	for e := range g.M() {
		if !inTree[e] {
			del = append(del, graph.EdgeID(e))
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(del), func(i, j int) { del[i], del[j] = del[j], del[i] })
	return del
}

// TestBatchDeletionOrder: one batch deleting every non-tree edge, listed
// in shuffled order, yields the graph that the same deletions give when
// applied one per batch in descending ID order.
func TestBatchDeletionOrder(t *testing.T) {
	g := seeded(t, "random", 2000, 1, gen.WeightsRandom)
	del := nonTreeEdges(t, g, 1)
	if len(del) != 4001 {
		t.Fatalf("%d non-tree edges, want 4001", len(del))
	}
	batched := g.Clone()
	if err := batched.ApplyBatch(graph.Batch{Deletions: del}); err != nil {
		t.Fatal(err)
	}
	oneByOne := g.Clone()
	desc := slices.Clone(del)
	slices.Sort(desc)
	slices.Reverse(desc)
	for _, e := range desc {
		if err := oneByOne.ApplyBatch(graph.Batch{Deletions: []graph.EdgeID{e}}); err != nil {
			t.Fatalf("deleting %d: %v", e, err)
		}
	}
	if err := reference.Equal(batched, oneByOne); err != nil {
		t.Fatalf("one batch != one deletion per batch: %v", err)
	}
	if batched.M() != g.N()-1 {
		t.Fatalf("M = %d after deleting every non-tree edge, want %d", batched.M(), g.N()-1)
	}
}

// TestLargeDeletionBatch deletes the 80,001 non-tree edges of a seeded
// n = 4·10⁴ random graph in one batch, which costs O(m + k log k): the
// k targets are ordered by a sort.
func TestLargeDeletionBatch(t *testing.T) {
	g := seeded(t, "random", 40000, 1, gen.WeightsRandom)
	del := nonTreeEdges(t, g, 2)
	if len(del) != 80001 {
		t.Fatalf("%d non-tree edges, want 80001", len(del))
	}
	start := time.Now()
	if err := g.ApplyBatch(graph.Batch{Deletions: del}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d deletions in one batch: %v", len(del), time.Since(start))
	if err := reference.Validate(g); err != nil {
		t.Fatal(err)
	}
	if g.M() != g.N()-1 || !reference.Connected(g) {
		t.Fatalf("M = %d, connected %v: not a spanning tree on %d nodes", g.M(), reference.Connected(g), g.N())
	}
}

// FuzzApplyBatch drives ApplyBatch, the in-place update door, with
// scripts of weight updates and deletions on small seeded graphs. The
// arguments pick the graph (family index into gen.Names, n ≤ 32, seed,
// weight mode); the script is read in 3-byte ops (kind|high, low, w):
// bit 0 of the first byte picks a weight update or a deletion, the rest
// of it and the second byte name an edge ID in [-1, m+1], and the third
// byte minus one is the new weight, so IDs out of range, weights below
// 1, repeated deletions and bridges are all reachable. The batch must be
// rejected exactly when a reference check says so; a rejected batch
// leaves the graph unchanged, and an accepted one leaves a valid graph
// with the reference's edges that FromEdgeList rebuilds identically.
func FuzzApplyBatch(f *testing.F) {
	family := func(name string) uint8 { return uint8(slices.Index(gen.Names(), name)) }
	ring, path, complete, lollipop := family("ring"), family("path"), family("complete"), family("lollipop")
	f.Add(ring, uint8(8), uint64(1), uint8(0), []byte{0, 9, 5})              // weight update on edge m
	f.Add(ring, uint8(8), uint64(1), uint8(1), []byte{0, 1, 1})              // weight 0
	f.Add(ring, uint8(8), uint64(1), uint8(2), []byte{1, 0, 0})              // deletion of edge -1
	f.Add(complete, uint8(6), uint64(2), uint8(0), []byte{1, 1, 0, 1, 1, 0}) // edge 0 deleted twice
	f.Add(path, uint8(8), uint64(3), uint8(1), []byte{1, 1, 0})              // bridge: fewer than n-1 edges left
	f.Add(lollipop, uint8(8), uint64(3), uint8(1), []byte{1, 7, 0})          // bridge: the tail's first edge
	f.Add(complete, uint8(6), uint64(4), uint8(2), []byte{
		0, 1, 6, // edge 0 gets weight 5
		0, 4, 2, // edge 3 gets weight 1
		1, 2, 0, // delete edge 1
		1, 3, 0, // delete edge 2
	}) // clean mixed batch
	f.Fuzz(func(t *testing.T, fam, n uint8, seed uint64, mode uint8, script []byte) {
		names := gen.Names()
		g, err := gen.BuildSeeded(names[int(fam)%len(names)], max(1, int(n%33)), seed,
			gen.SeededOptions{Weights: gen.WeightMode(mode % 3)})
		if err != nil {
			t.Fatal(err)
		}
		before := g.Clone()
		m := g.M()
		var b graph.Batch
		for i := 0; i+2 < len(script); i += 3 {
			e := graph.EdgeID((int(script[i]>>1)<<8|int(script[i+1]))%(m+3) - 1)
			if script[i]&1 == 0 {
				b.Weights = append(b.Weights, graph.WeightUpdate{Edge: e, W: graph.Weight(script[i+2]) - 1})
			} else {
				b.Deletions = append(b.Deletions, e)
			}
		}

		// Reference: the records the batch should leave, and whether it
		// must be rejected, computed from before's records alone.
		recs := slices.Clone(before.Edges())
		valid := true
		for _, wu := range b.Weights {
			if wu.Edge < 0 || int(wu.Edge) >= m || wu.W < 1 {
				valid = false
				break
			}
			recs[wu.Edge].W = wu.W
		}
		deleted := make([]bool, m)
		for _, e := range b.Deletions {
			if e < 0 || int(e) >= m || deleted[e] {
				valid = false
				break
			}
			deleted[e] = true
		}
		type triple struct {
			lo, hi graph.NodeID
			w      graph.Weight
		}
		var want []triple
		comp := make([]graph.NodeID, g.N()) // naive label propagation
		for u := range comp {
			comp[u] = graph.NodeID(u)
		}
		for e, r := range recs {
			if deleted[e] {
				continue
			}
			want = append(want, triple{min(r.U, r.V), max(r.U, r.V), r.W})
			if from, to := comp[r.U], comp[r.V]; from != to {
				for u := range comp {
					if comp[u] == from {
						comp[u] = to
					}
				}
			}
		}
		for u := range comp {
			if comp[u] != comp[0] {
				valid = false
			}
		}

		err = g.ApplyBatch(b)
		if err != nil {
			if valid {
				t.Fatalf("valid batch %+v rejected: %v", b, err)
			}
			if eq := reference.Equal(g, before); eq != nil {
				t.Fatalf("rejected batch (%v) mutated the graph: %v", err, eq)
			}
			return
		}
		if !valid {
			t.Fatalf("invalid batch %+v accepted", b)
		}
		if err := reference.Validate(g); err != nil {
			t.Fatalf("batch %+v left an invalid graph: %v", b, err)
		}
		if g.M() != m-len(b.Deletions) {
			t.Fatalf("M = %d after %d deletions from %d", g.M(), len(b.Deletions), m)
		}
		var got []triple
		for _, r := range g.Edges() {
			got = append(got, triple{min(r.U, r.V), max(r.U, r.V), r.W})
		}
		byFields := func(a, b triple) int {
			return cmp.Or(cmp.Compare(a.lo, b.lo), cmp.Compare(a.hi, b.hi), cmp.Compare(a.w, b.w))
		}
		slices.SortFunc(got, byFields)
		slices.SortFunc(want, byFields)
		if !slices.Equal(got, want) {
			t.Fatalf("batch %+v: edges %v, want %v", b, got, want)
		}
		rebuilt, err := graph.FromEdgeList(g.N(), slices.Clone(g.IDs()), slices.Clone(g.Edges()), 0)
		if err != nil {
			t.Fatalf("FromEdgeList of the patched records: %v", err)
		}
		if err := reference.Equal(g, rebuilt); err != nil {
			t.Fatalf("patched graph != rebuild from its own records: %v", err)
		}
	})
}
