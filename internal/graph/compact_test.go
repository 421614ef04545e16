package graph_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
	"mstadvice/internal/store"
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

// TestFromEdgeListReproducesEveryFamily rebuilds every registered family
// from a copy of its own edge records, fresh and after deletions have
// swap-removed ports and edge IDs, and requires graph.Equal.
func TestFromEdgeListReproducesEveryFamily(t *testing.T) {
	fams := gen.Names()
	if len(fams) != 12 {
		t.Fatalf("%d families registered, want 12", len(fams))
	}
	for _, fam := range fams {
		rng := rand.New(rand.NewSource(3))
		g := seeded(t, fam, 40, 3, gen.WeightsRandom)
		rebuild := func(stage string) {
			t.Helper()
			back, err := graph.FromEdgeList(g.N(), slices.Clone(g.IDs()), slices.Clone(g.Edges()), 0)
			if err != nil {
				t.Fatalf("%s %s: %v", fam, stage, err)
			}
			if err := reference.Equal(g, back); err != nil {
				t.Fatalf("%s %s: %v", fam, stage, err)
			}
		}
		rebuild("fresh")
		deleted := 0
		for try := 0; try < 4*g.M() && deleted < 5; try++ {
			if g.ApplyBatch(graph.Batch{Deletions: []graph.EdgeID{graph.EdgeID(rng.Intn(g.M()))}}) == nil {
				deleted++
			}
		}
		rebuild("after deletions")
	}
}

// TestDecodeAllocatesOnce pins the single CSR build on the decode path:
// decoding a seeded n = 10⁵ snapshot allocates less than 1.25× what the
// decoded graph and advice retain. The advice retains a 16-byte string
// and its pointer per node, and a tail only for a string over 64 bits.
func TestDecodeAllocatesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10⁵-node snapshot")
	}
	g, err := gen.BuildSeeded("random", 100_000, 1, gen.SeededOptions{})
	if err != nil {
		t.Fatal(err)
	}
	advice, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	data, err := store.Encode(&store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: advice})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	snap, err := store.Decode(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n, m := snap.Graph.N(), snap.Graph.M()
	retained := n*int(unsafe.Sizeof(int64(0))) + // ids
		m*int(unsafe.Sizeof(graph.Edge{})) +
		2*m*int(unsafe.Sizeof(graph.EdgeID(0))) + // the edge at each port
		(2*n+1)*int(unsafe.Sizeof(int32(0))) + // offsets, degrees
		n*int(unsafe.Sizeof(&bitstring.BitString{})+unsafe.Sizeof(bitstring.BitString{}))
	for _, a := range snap.Advice {
		if a.Len() > 64 { // a tail of its own: a length, a slice header and the words
			retained += int(unsafe.Sizeof(0)+unsafe.Sizeof([]uint64(nil))) + 8*len(a.Words())
		}
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	ratio := float64(allocated) / float64(retained)
	t.Logf("decode allocated %.1f MB for %.1f MB retained (%.3f×)", float64(allocated)/1e6, float64(retained)/1e6, ratio)
	if ratio >= 1.25 {
		t.Fatalf("decode allocated %.3f× the decoded graph and advice, want < 1.25×", ratio)
	}
}

// TestFromEdgeListRetainsLayout pins what a graph keeps beyond the
// records and identifiers it takes over: the edge ID at each port (8m
// bytes) plus the offsets and degrees (8n + 4), within 64 KiB.
func TestFromEdgeListRetainsLayout(t *testing.T) {
	g := seeded(t, "random", 100_000, 1, gen.WeightsDistinct)
	n, m := g.N(), g.M()
	ids, edges := slices.Clone(g.IDs()), slices.Clone(g.Edges())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	back, err := graph.FromEdgeList(n, ids, edges, 0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	want := int64(8*m + 8*n + 4)
	t.Logf("FromEdgeList retained %d bytes beyond its input at n = %d, m = %d (layout: %d)", grew, n, m, want)
	if d := grew - want; d < -64<<10 || d > 64<<10 {
		t.Fatalf("FromEdgeList retained %d bytes, want 8m + 8n + 4 = %d within 64 KiB", grew, want)
	}
	runtime.KeepAlive(back)
}
