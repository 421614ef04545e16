package localgather

import (
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
	"mstadvice/internal/sim"
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

func TestCorrectAcrossFamilies(t *testing.T) {
	var s Scheme
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{1, 2, 3, 10, 30} {
				if n < 2 && fam != "path" && fam != "tree" {
					continue
				}
				g := seeded(t, fam, n, uint64(int64(n)*13+int64(mode)), mode)
				res, err := advice.Run(s, g, 0, sim.Options{})
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", fam, mode, n, err)
				}
				if !res.Verified {
					t.Fatalf("%s/%s n=%d: not the MST: %v", fam, mode, n, res.VerifyErr)
				}
				// The scheme roots at the minimum ID by convention.
				wantRoot := graph.NodeID(0)
				for u := 0; u < g.N(); u++ {
					if g.ID(graph.NodeID(u)) < g.ID(wantRoot) {
						wantRoot = graph.NodeID(u)
					}
				}
				if res.Root != wantRoot {
					t.Fatalf("%s/%s n=%d: root %d, want min-ID node %d", fam, mode, n, res.Root, wantRoot)
				}
				if res.Advice.TotalBits != 0 {
					t.Fatal("localgather must use zero advice")
				}
			}
		}
	}
}

// Termination rule: rounds stay within D+2 (the +1 over the paper's D+1 is
// the explicit fixpoint detection; see DESIGN.md).
func TestRoundsNearDiameter(t *testing.T) {
	var s Scheme
	for _, fam := range gen.Names() {
		for _, n := range []int{9, 25, 49} {
			g := seeded(t, fam, n, uint64(int64(n)), gen.WeightsDistinct)
			res, err := advice.Run(s, g, 0, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			d := reference.Diameter(g)
			if res.Rounds > d+2 {
				t.Fatalf("%s n=%d: %d rounds > D+2 = %d", fam, n, res.Rounds, d+2)
			}
			if res.Rounds < d {
				t.Fatalf("%s n=%d: %d rounds < D = %d (too good to be true)", fam, n, res.Rounds, d)
			}
		}
	}
}

// Message sizes grow with the graph: this is a LOCAL-model algorithm. On a
// path, some node must forward a constant fraction of all records in one
// message.
func TestMessagesAreLarge(t *testing.T) {
	var s Scheme
	g := seeded(t, "random", 60, 2, gen.WeightsDistinct)
	res, err := advice.Run(s, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cm := sim.NewCostModel(g)
	recordBits := 2*cm.IDBits + 2*cm.PortBits + cm.WeightBits
	if res.MaxMsgBits < 4*recordBits {
		t.Fatalf("max message only %d bits; expected a large batch (record=%d bits)", res.MaxMsgBits, recordBits)
	}
}

// The gathered view at termination must be the whole graph; we probe this
// indirectly by running on a graph with a pendant far from everything and
// checking correctness (the pendant's record must traverse the diameter).
func TestTerminationRule(t *testing.T) {
	var s Scheme
	// Long path with a heavy shortcut: MST must exclude the shortcut, and
	// the two path ends only learn that if records really propagate fully.
	b := graph.NewBuilder(12)
	for i := 0; i+1 < 12; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), graph.Weight(i+1))
	}
	b.AddEdge(0, 11, 1000)
	g := reference.MustBuild(b)
	res, err := advice.Run(s, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("not verified: %v", res.VerifyErr)
	}
	for _, e := range res.ParentPorts {
		_ = e
	}
	// The shortcut edge must not be anyone's parent edge.
	for u, p := range res.ParentPorts {
		if p == -1 {
			continue
		}
		h := g.HalfAt(graph.NodeID(u), p)
		if g.Weight(h.Edge) == 1000 {
			t.Fatal("MST used the heavy shortcut")
		}
	}
}
