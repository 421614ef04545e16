package dynamic

import (
	"math"
	"slices"
	"testing"

	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/reference"
)

// FuzzAnalyze holds the sensitivity oracle to brute force on small
// graphs read from the input (fuzzGraph without a spanning tree, so
// some are disconnected). Analyze must fail exactly when the graph is
// disconnected. Otherwise InTree must be the naive reference's tree,
// every Swap bruteSwaps', and WouldChange at one below, at and one
// above each edge's Tolerance (at weight 1 and math.MaxInt64 for a
// bridge) must agree with a reference re-solve of the patched graph.
// The committed seeds under testdata/fuzz/FuzzAnalyze are a complete
// graph of equal weights, a triangle with a pendant bridge, a path, a
// graph with all four extreme identifiers and a disconnected graph.
func FuzzAnalyze(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(t, fuzzReader(&data), false)
		s, err := Analyze(g)
		if connected := reference.Connected(g); (err == nil) != connected {
			t.Fatalf("Analyze on a graph with connected=%v: error %v", connected, err)
		}
		if err != nil {
			return
		}
		ref := reference.Kruskal(g)
		inTree := treeFlags(g, ref)
		if !slices.Equal(s.InTree, inTree) {
			t.Fatalf("InTree %v, reference %v", s.InTree, inTree)
		}
		for e, want := range bruteSwaps(g, inTree) {
			if s.Swap[e] != want {
				t.Fatalf("edge %d (inTree=%v) has swap %d, brute force %d", e, inTree[e], s.Swap[e], want)
			}
		}
		for e := range graph.EdgeID(g.M()) {
			limit, bounded := s.Tolerance(e)
			ws := []graph.Weight{limit - 1, limit, limit + 1}
			if !bounded {
				ws = []graph.Weight{1, math.MaxInt64}
			}
			for _, w := range ws {
				if w < 1 {
					continue
				}
				patched := g.Clone()
				if err := patched.ApplyBatch(graph.Batch{Weights: []graph.WeightUpdate{{Edge: e, W: w}}}); err != nil {
					t.Fatal(err)
				}
				changed, predicted := !slices.Equal(ref, reference.Kruskal(patched)), s.WouldChange(e, w)
				if changed != predicted {
					t.Fatalf("edge %d (inTree=%v, tolerance %d) at weight %d: WouldChange=%v, re-solve changed=%v",
						e, inTree[e], limit, w, predicted, changed)
				}
			}
		}
	})
}

// FuzzAdvisor drives a dynamic.Advisor through a sequence of batches
// read from the input: a connected graph (fuzzGraph with a spanning
// tree), a root byte, then up to 16 batches, each of one to three
// updates. An update's first byte picks a deletion (≡ 3 mod 4) or a
// weight update; then come the edge, in [0, m] so that m is out of
// range, and a weight update's weight, in 0–5 so that 0 is rejected.
// A rejected batch must leave the graph and the advice as they were.
// After an accepted one the advice must equal core.BuildAdvice on the
// patched graph byte for byte, InTree the naive reference's tree, and
// an incremental batch must have left that tree unchanged. The
// committed seeds under testdata/fuzz/FuzzAdvisor include a non-tree
// edge falling below its cycle maximum (the MST flips, so the batch
// must not be taken incrementally), a tree edge rising past its
// replacement, tolerant raises, and rejected batches.
func FuzzAdvisor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := fuzzReader(&data)
		g := fuzzGraph(t, next, true)
		root := graph.NodeID(next() % g.N())
		a, err := NewAdvisor(g, root, core.DefaultCap)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 16 && len(data) > 0; step++ {
			var b graph.Batch
			for range 1 + next()%3 {
				op, e := next(), graph.EdgeID(next()%(a.Graph().M()+1))
				if op%4 == 3 {
					b.Deletions = append(b.Deletions, e)
				} else {
					b.Weights = append(b.Weights, graph.WeightUpdate{Edge: e, W: graph.Weight(next() % 6)})
				}
			}
			before, advice := a.Graph().Clone(), slices.Clone(a.Advice())
			tree := reference.Kruskal(before)
			res, err := a.Update(b)
			if err != nil {
				if err := reference.Equal(before, a.Graph()); err != nil {
					t.Fatalf("step %d: rejected batch %+v changed the graph: %v", step, b, err)
				}
				if u, ok := adviceEqual(a.Advice(), advice); !ok {
					t.Fatalf("step %d: rejected batch %+v changed node %d's advice", step, b, u)
				}
				continue
			}
			want, err := core.BuildAdvice(a.Graph(), root, core.DefaultCap)
			if err != nil {
				t.Fatalf("step %d: full oracle: %v", step, err)
			}
			if u, ok := adviceEqual(a.Advice(), want); !ok {
				t.Fatalf("step %d: after batch %+v the advice differs from the oracle's at node %d", step, b, u)
			}
			after := reference.Kruskal(a.Graph())
			if !slices.Equal(a.Sensitivity().InTree, treeFlags(a.Graph(), after)) {
				t.Fatalf("step %d: after batch %+v InTree %v, reference tree %v", step, b, a.Sensitivity().InTree, after)
			}
			if res.Incremental && !slices.Equal(tree, after) {
				t.Fatalf("step %d: batch %+v changed the MST but was taken incrementally", step, b)
			}
		}
	})
}

// fuzzReader reads *data a byte at a time; missing bytes read as zero.
func fuzzReader(data *[]byte) func() int {
	return func() int {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return int(b)
	}
}

// fuzzGraph reads a graph of n ≤ 16 nodes with weights 1–4. Byte 0
// gives n − 1. With spanning set, each node v ≥ 1 then names a
// neighbour among nodes < v and the edge's weight, so the graph is
// connected. Then a count of further edges and a (u, v, weight) triple
// for each, duplicates and loops skipped; then one shuffle choice per
// port (reference.FuzzPorts) and one identifier byte per node
// (reference.FuzzIDs).
func fuzzGraph(t *testing.T, next func() int, spanning bool) *graph.Graph {
	t.Helper()
	n := 1 + next()%16
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
	for v := 1; spanning && v < n; v++ {
		add(next()%v, v, next())
	}
	for range next() % 64 {
		add(next()%n, next()%n, next())
	}
	reference.FuzzPorts(n, edges, next)
	g, err := graph.FromEdgeList(n, reference.FuzzIDs(n, next), edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
