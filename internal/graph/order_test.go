package graph_test

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
)

// keySort is the global order by slices.SortFunc over Graph.Key: the
// reference GlobalOrder is held to.
func keySort(g *graph.Graph) []graph.EdgeID {
	order := make([]graph.EdgeID, g.M())
	for i := range order {
		order[i] = graph.EdgeID(i)
	}
	return keySorted(g, order)
}

// keySorted is a copy of es sorted by slices.SortFunc over Graph.Key:
// the reference SortGlobal is held to.
func keySorted(g *graph.Graph, es []graph.EdgeID) []graph.EdgeID {
	es = slices.Clone(es)
	slices.SortFunc(es, func(a, b graph.EdgeID) int {
		ka, kb := g.Key(a), g.Key(b)
		return cmp.Or(cmp.Compare(ka.W, kb.W), cmp.Compare(ka.MinID, kb.MinID), cmp.Compare(ka.PortAtMin, kb.PortAtMin))
	})
	return es
}

// sortSubset runs SortGlobal on a copy of es and holds it to the key
// sort of es; radix reports whether the packed words were sorted. A
// subset of fewer than two edges needs no sort and reports radix.
func sortSubset(t *testing.T, g *graph.Graph, workers int, es []graph.EdgeID) (radix bool) {
	t.Helper()
	got := slices.Clone(es)
	radix = graph.SortGlobalWith(g, workers, got)
	if want := keySorted(g, es); !slices.Equal(got, want) {
		t.Fatalf("SortGlobal of %v on %d workers: %v, key sort %v", es, workers, got, want)
	}
	return radix
}

// everyThird is a subset of g's edges out of ID order: every third edge,
// from the last one down.
func everyThird(g *graph.Graph) []graph.EdgeID {
	var es []graph.EdgeID
	for e := g.M() - 1; e >= 0; e -= 3 {
		es = append(es, graph.EdgeID(e))
	}
	return es
}

// wordsAscend reports whether the order words rise strictly along the
// key sort's order: then words[a] < words[b] exactly when Key(a)
// precedes Key(b), for every pair of edges.
func wordsAscend(words []uint64, keyOrder []graph.EdgeID) bool {
	if len(words) != len(keyOrder) {
		return false
	}
	for i := 1; i < len(keyOrder); i++ {
		if words[keyOrder[i-1]] >= words[keyOrder[i]] {
			return false
		}
	}
	return true
}

// TestGlobalOrder holds GlobalOrder, the unsorted order words it
// sorts, and SortGlobal of a subset of the edges (every third one,
// given in descending ID order), to the comparison sort on every seeded
// family, weight mode, size and worker count. Every seeded graph fits
// the packed word, so each row also checks that the radix path ran; at
// n = 300 the denser families pass par.SortU64's parallel threshold. At
// n = 64 the check is repeated after deleting half the non-tree edges,
// which frees CSR slots and moves ports.
func TestGlobalOrder(t *testing.T) {
	for _, fam := range gen.Names() {
		for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
			for _, n := range []int{1, 2, 3, 64, 300} {
				g, err := gen.BuildSeeded(fam, n, uint64(n)+uint64(mode)*101, gen.SeededOptions{Weights: mode})
				if err != nil {
					t.Fatalf("%s/%v/n=%d: %v", fam, mode, n, err)
				}
				check := func(stage string) {
					t.Helper()
					want := keySort(g)
					if got := g.GlobalOrder(); !slices.Equal(got, want) {
						t.Fatalf("%s/%v/n=%d %s: GlobalOrder differs from the key sort", fam, mode, n, stage)
					}
					for _, workers := range []int{1, 2, 8} {
						got, radix := graph.GlobalOrderWith(g, workers)
						if !radix || !slices.Equal(got, want) {
							t.Fatalf("%s/%v/n=%d %s, %d workers: radix=%v, equal=%v", fam, mode, n, stage, workers, radix, slices.Equal(got, want))
						}
						if !wordsAscend(g.OrderWords(workers), want) {
							t.Fatalf("%s/%v/n=%d %s, %d workers: the order words do not order the edges as Key does", fam, mode, n, stage, workers)
						}
						if !sortSubset(t, g, workers, everyThird(g)) {
							t.Fatalf("%s/%v/n=%d %s, %d workers: the subset sort fell back", fam, mode, n, stage, workers)
						}
					}
				}
				check("as built")
				if n != 64 {
					continue
				}
				if del := nonTreeEdges(t, g, 1); len(del) > 0 {
					if err := g.ApplyBatch(graph.Batch{Deletions: del[:(len(del)+1)/2]}); err != nil {
						t.Fatal(err)
					}
					check("after deletions")
				}
			}
		}
	}
}

// TestGlobalOrderFallback pins which graphs take the packed radix path
// and which the comparison fallback, and holds both, with their order
// words and SortGlobal of every edge subset, to the key sort.
// K4 has rank and port fields of 2 bits each, so a weight span of
// 2⁶⁰ − 1 fills the 64-bit word exactly and 2⁶⁰ overflows it.
func TestGlobalOrderFallback(t *testing.T) {
	k4 := func(ids []int64, w ...graph.Weight) *graph.Graph {
		b := graph.NewBuilder(4)
		i := 0
		for u := graph.NodeID(0); u < 4; u++ {
			for v := u + 1; v < 4; v++ {
				b.AddEdge(u, v, w[i])
				i++
			}
		}
		g, err := graph.FromEdgeList(4, ids, slices.Clone(reference.MustBuild(b).Edges()), 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ids := []int64{7, -5, 3, 1}
	const e60 = graph.Weight(1) << 59
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		radix bool
	}{
		{"span 2^60-1: 64 bits", k4(ids, -e60, e60-1, 0, 0, 7, -e60), true},
		{"span 2^60: 65 bits", k4(ids, -e60, e60, 0, 0, 7, -e60), false},
		{"weights -2^62 and 2^62", k4(ids, -1<<62, 1<<62, 3, 3, 3, 1<<62), false},
		{"int64 extremes", k4(ids, math.MinInt64, math.MaxInt64, 0, 0, math.MaxInt64, math.MinInt64), false},
		{"IDs at the int32 bounds", k4([]int64{math.MaxInt32, math.MinInt32, 0, -1}, 2, 1, 1, 2, 1, 2), true},
		{"ID above MaxInt32", k4([]int64{math.MaxInt32 + 1, 4, 0, -1}, 2, 1, 1, 2, 1, 2), false},
		{"ID below MinInt32", k4([]int64{math.MinInt32 - 1, 4, 0, -1}, 2, 1, 1, 2, 1, 2), false},
	} {
		want := keySort(c.g)
		for _, workers := range []int{1, 2} {
			got, radix := graph.GlobalOrderWith(c.g, workers)
			if radix != c.radix || !slices.Equal(got, want) {
				t.Errorf("%s, %d workers: order %v radix=%v, want %v radix=%v", c.name, workers, got, radix, want, c.radix)
			}
			if words := c.g.OrderWords(workers); !wordsAscend(words, want) {
				t.Errorf("%s, %d workers: order words %v do not rise along %v", c.name, workers, words, want)
			}
			// Every subset of the six edges, in descending ID order.
			for set := range 1 << 6 {
				var es []graph.EdgeID
				for e := 5; e >= 0; e-- {
					if set>>e&1 == 1 {
						es = append(es, graph.EdgeID(e))
					}
				}
				if radix := sortSubset(t, c.g, workers, es); radix != (c.radix || len(es) < 2) {
					t.Errorf("%s, %d workers: subset %v radix=%v", c.name, workers, es, radix)
				}
			}
		}
	}
	empty := reference.MustBuild(graph.NewBuilder(0))
	if got, words := empty.GlobalOrder(), empty.OrderWords(1); len(got) != 0 || len(words) != 0 {
		t.Errorf("empty graph: order %v, words %v", got, words)
	}
}

// FuzzGlobalOrder holds GlobalOrder, the order words and SortGlobal of
// an edge subset to the key sort on graphs read from the input through
// graph.FromEdgeList. Byte 0 gives n − 1 (n ≤ 64)
// and byte 1 the width in bytes of every identifier (1–8, sign-
// extended, so every int64 can occur; duplicates are rejected by the
// builder and skipped); then the identifiers; then an edge count and a
// (u, v, weight) triple for each, loops and duplicates skipped, where
// the weight is a small tie-prone value, an extreme, or a raw int64;
// then one shuffle choice per port, so every port numbering can occur;
// then one byte per edge, in descending ID order, that puts the edge in
// the subset when it is odd. Missing bytes read as zero. The seed
// wide-ids-subset sorts a subset on the comparison fallback.
func FuzzGlobalOrder(f *testing.F) {
	extremes := []graph.Weight{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		-1 << 62, 1 << 62, 0, -1}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		raw := func(width int) int64 {
			var buf [8]byte
			for i := range width {
				buf[i] = byte(next())
			}
			shift := uint(64 - 8*width)
			return int64(binary.LittleEndian.Uint64(buf[:])<<shift) >> shift
		}
		n := 1 + next()%64
		width := 1 + next()%8
		ids := make([]int64, n)
		for u := range ids {
			ids[u] = raw(width)
		}
		var edges []graph.Edge
		seen := map[[2]int]bool{}
		for range next() {
			u, v, sel := next()%n, next()%n, next()
			w := graph.Weight(sel % 4)
			switch {
			case sel >= 192:
				w = graph.Weight(raw(8))
			case sel >= 128:
				w = extremes[sel%len(extremes)]
			}
			if key := [2]int{min(u, v), max(u, v)}; u != v && !seen[key] {
				seen[key] = true
				edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: w})
			}
		}
		slots := make([][]*int32, n) // each node's port slots, in edge order
		for i := range edges {
			e := &edges[i]
			slots[e.U] = append(slots[e.U], &e.PU)
			slots[e.V] = append(slots[e.V], &e.PV)
		}
		for _, s := range slots {
			for i := len(s) - 1; i > 0; i-- {
				j := next() % (i + 1)
				s[i], s[j] = s[j], s[i]
			}
			for p, slot := range s {
				*slot = int32(p)
			}
		}
		g, err := graph.FromEdgeList(n, ids, edges, 1)
		if err != nil {
			return // duplicate identifiers
		}
		want := keySort(g)
		if got := g.GlobalOrder(); !slices.Equal(got, want) {
			t.Fatalf("GlobalOrder %v, key sort %v", got, want)
		}
		if words := g.OrderWords(1); !wordsAscend(words, want) {
			t.Fatalf("order words %v do not rise along the key sort %v", words, want)
		}
		var subset []graph.EdgeID
		for e := g.M() - 1; e >= 0; e-- {
			if next()&1 == 1 {
				subset = append(subset, graph.EdgeID(e))
			}
		}
		sortSubset(t, g, 1, subset)
		sortSubset(t, g, 3, subset)
	})
}
