package pipeline

import (
	"slices"
	"testing"

	"mstadvice/internal/advice"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/mst"
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

func run(t *testing.T, g *graph.Graph) *advice.Result {
	t.Helper()
	res, err := advice.Run(Scheme{}, g, 0, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCorrectAcrossFamilies(t *testing.T) {
	for _, mode := range []gen.WeightMode{gen.WeightsDistinct, gen.WeightsRandom, gen.WeightsUnit} {
		for _, fam := range gen.Names() {
			for _, n := range []int{1, 2, 3, 8, 21, 48} {
				if n < 2 && fam != "path" && fam != "tree" {
					continue
				}
				g := seeded(t, fam, n, uint64(int64(n)*5+int64(mode)*771), mode)
				res := run(t, g)
				if !res.Verified {
					t.Fatalf("%s/%s n=%d: not the MST: %v", fam, mode, n, res.VerifyErr)
				}
				if res.Advice.TotalBits != 0 {
					t.Fatal("pipeline must use zero advice")
				}
			}
		}
	}
}

// The output tree is rooted at the minimum-ID node (the elected leader).
func TestRootIsMinID(t *testing.T) {
	g := seeded(t, "random", 30, 3, gen.WeightsDistinct)
	res := run(t, g)
	want := graph.NodeID(0)
	for u := 0; u < g.N(); u++ {
		if g.ID(graph.NodeID(u)) < g.ID(want) {
			want = graph.NodeID(u)
		}
	}
	if res.Root != want {
		t.Fatalf("root %d, want min-ID node %d", res.Root, want)
	}
	tree, err := mst.EdgesFromParentPorts(g, res.ParentPorts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mst.Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tree, ref) {
		t.Fatal("tree differs from reference MST")
	}
}

// CONGEST: single-record messages only.
func TestCongestMessages(t *testing.T) {
	g := seeded(t, "random", 50, 5, gen.WeightsDistinct)
	res := run(t, g)
	cm := sim.NewCostModel(g)
	bound := 2*cm.IDBits + 2*cm.PortBits + cm.WeightBits // largest message type
	if res.MaxMsgBits > bound {
		t.Fatalf("max message %d bits > single-record bound %d", res.MaxMsgBits, bound)
	}
}

// The profile is Θ(n + D): linear even on low-diameter graphs (that is
// what distinguishes it from the fragment-growing baseline).
func TestLinearRounds(t *testing.T) {
	rounds := map[int]int{}
	for _, n := range []int{32, 128, 512} {
		g := seeded(t, "expander", n, uint64(int64(n)), gen.WeightsDistinct)
		res := run(t, g)
		rounds[n] = res.Rounds
		if res.Rounds < n/2 {
			t.Fatalf("n=%d: %d rounds — too fast for a pipeline over n assignments", n, res.Rounds)
		}
		if res.Rounds > 8*n {
			t.Fatalf("n=%d: %d rounds — super-linear", n, res.Rounds)
		}
	}
	if rounds[512] < 2*rounds[128] {
		t.Fatalf("rounds not scaling linearly: %v", rounds)
	}
}

// Heavy ties: the global order must keep upcast streams strictly sorted.
func TestUnitWeights(t *testing.T) {
	g := seeded(t, "complete", 24, 8, gen.WeightsUnit)
	res := run(t, g)
	if !res.Verified {
		t.Fatal(res.VerifyErr)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *graph.Graph {
		return seeded(t, "random", 40, 11, gen.WeightsDistinct)
	}
	a, err := advice.Run(Scheme{}, mk(), 0, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := advice.Run(Scheme{}, mk(), 0, sim.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatalf("divergence: rounds %d/%d msgs %d/%d", a.Rounds, b.Rounds, a.Messages, b.Messages)
	}
	for u := range a.ParentPorts {
		if a.ParentPorts[u] != b.ParentPorts[u] {
			t.Fatalf("outputs differ at node %d", u)
		}
	}
}

// Lollipop: the adversarial family where both no-advice baselines pay
// linearly while the 12-bit scheme stays logarithmic (cross-checked in
// the facade tests).
func TestLollipop(t *testing.T) {
	g := seeded(t, "lollipop", 60, 13, gen.WeightsDistinct)
	res := run(t, g)
	if !res.Verified {
		t.Fatal(res.VerifyErr)
	}
	if res.Rounds < g.N()/2 {
		t.Fatalf("lollipop solved in %d rounds — suspicious", res.Rounds)
	}
}
