package core_test

import (
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
		g, root, level := fuzzGraph(data)
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

// fuzzGraph reads a connected graph and a root (reference.FuzzGraph),
// then a hier level, 1 to 4. Missing bytes read as zero.
func fuzzGraph(data []byte) (*graph.Graph, graph.NodeID, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g, root := reference.FuzzGraph(next)
	return g, root, 1 + next()%4
}
