package core_test

import (
	"math"
	"slices"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/hier"
	"mstadvice/internal/reference"
	"mstadvice/internal/sim"
)

// FuzzCoreDecode runs the strict and the adaptive Theorem 3 decoder and
// the local-decompression decoder (hier, at a level from 1 to 4) on
// small graphs read from the input (n ≤ 32, weights 1–4, any port
// numbering and identifiers) and holds their output to an independent
// reference: the naive Kruskal and BFS rooting of internal/reference.
// Every decoder must finish without an engine error and every node
// must name the reference's parent port; the Theorem 3 decoders on at
// most 12 advice bits per node, the strict one in exactly RoundBound(n)
// rounds, and hier in exactly reference.HierRounds(n). The committed seeds under
// testdata/fuzz are a star, a path, a complete graph of equal weights
// and a 16-node tree with one relay at identifier −2⁶². The target sits
// in the external test package because hier imports core.
func FuzzCoreDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, root, level := fuzzGraph(t, data)
		want := reference.Parents(g, root)
		exact, _ := core.RoundBound(g.N())
		for _, c := range []struct {
			s       advice.Scheme
			rounds  int // the fixed round count, 0 for none
			maxBits int // the advice bound, 0 for none
		}{
			{core.Scheme{}, exact, 12},
			{core.Scheme{Adaptive: true}, 0, 12},
			{hier.Scheme{Level: level}, reference.HierRounds(g.N()), 0},
		} {
			res, err := advice.Run(c.s, g, root, sim.Options{})
			if err != nil {
				t.Fatalf("%s: %v", c.s.Name(), err)
			}
			if c.maxBits > 0 && res.Advice.MaxBits > c.maxBits {
				t.Fatalf("%s: %d advice bits", c.s.Name(), res.Advice.MaxBits)
			}
			if c.rounds > 0 && res.Rounds != c.rounds {
				t.Fatalf("%s: %d rounds, schedule says %d", c.s.Name(), res.Rounds, c.rounds)
			}
			if !slices.Equal(res.ParentPorts, want) {
				t.Fatalf("%s: parent ports %v, reference %v", c.s.Name(), res.ParentPorts, want)
			}
		}
	})
}

// fuzzGraph reads a connected graph, a root and a hier level. Byte 0
// gives n − 2 and byte 1 the root; then each node v ≥ 1 names its
// spanning-tree parent among nodes < v and the edge's weight; then a
// count of extra edges and a (u, v, weight) triple for each, duplicates
// and loops skipped; then one shuffle choice per port, so every port
// numbering can occur; then one identifier byte per node (see fuzzID);
// then the level, 1 to 4. Missing bytes read as zero.
func fuzzGraph(t *testing.T, data []byte) (*graph.Graph, graph.NodeID, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%31
	root := graph.NodeID(next() % n)
	var edges []graph.Edge
	seen := map[[2]int]bool{}
	add := func(u, v, w int) {
		key := [2]int{min(u, v), max(u, v)}
		if u == v || seen[key] {
			return
		}
		seen[key] = true
		edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: graph.Weight(1 + w%4)})
	}
	for v := 1; v < n; v++ {
		add(next()%v, v, next())
	}
	for range next() % 64 {
		add(next()%n, next()%n, next())
	}
	inc := make([][]*int32, n) // each node's port slots, in edge order
	for i := range edges {
		e := &edges[i]
		inc[e.U] = append(inc[e.U], &e.PU)
		inc[e.V] = append(inc[e.V], &e.PV)
	}
	for _, slots := range inc {
		for i := len(slots) - 1; i > 0; i-- {
			j := next() % (i + 1)
			slots[i], slots[j] = slots[j], slots[i]
		}
		for p, slot := range slots {
			*slot = int32(p)
		}
	}
	ids := make([]int64, n)
	var taken [len(extremeIDs)]bool
	for u := range ids {
		ids[u] = fuzzID(next(), u, &taken)
	}
	level := 1 + next()%4
	g, err := graph.FromEdgeList(n, ids, edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, root, level
}

// extremeIDs are the identifiers at the ends of the int64 range and at
// ±2⁶², the largest powers of two inside it.
var extremeIDs = [...]int64{math.MinInt64, -1 << 62, 1 << 62, math.MaxInt64}

// fuzzID maps node u's identifier byte b to an identifier, distinct from
// every other node's: 0xfc–0xff give the first node to ask for it
// extremeIDs[b−0xfc]; any other byte, or a later ask, gives b&0x7f·32 +
// u, negated less one when b ≥ 0x80. So identifiers can be negative,
// extreme and in any order.
func fuzzID(b, u int, taken *[len(extremeIDs)]bool) int64 {
	if k := b - 0xfc; k >= 0 && !taken[k] {
		taken[k] = true
		return extremeIDs[k]
	}
	id := int64(b&0x7f)<<5 | int64(u)
	if b >= 0x80 {
		return -id - 1
	}
	return id
}
